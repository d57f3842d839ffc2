-- Cost-planner corpus: multi-conjunct WHERE clauses and joins whose
-- plans the cost-based planner may reshape (conjunct reordering,
-- index-vs-vectorized access-path choice, hash-join build side). Every
-- query orders by a unique key so results are bit-for-bit comparable
-- across planner modes.

-- case: multi_conjunct_selective_last
-- rows: 11
-- sha256: 88e8c25f1341e64daf3c741cb206e4b13eeedfe40485ce0f4efe23b7cf74295a
select did from d where vn >= 100 and vs = 's07' and vg = 'grp2' order by did;

-- case: multi_conjunct_range_eq
-- rows: 14
-- sha256: a59876ce6c56051bea97b1cd6e26f3059e17198845c1b76c6887ca7ea9bc40cd
select did from d where vprice < 10 and vcity = 'c05' and vn is not null order by did;

-- case: multi_conjunct_json_raw
-- rows: 14
-- sha256: 27a271b38ad9ab7f155fa754ccad6b9c4799f8490c42ca73979eb6eb1857ee31
select did from d where json_value(jdoc, '$.addr.zip' returning number) = 10007 and json_value(jdoc, '$.g') = 'grp2' order by did;

-- case: multi_conjunct_in_like
-- rows: 97
-- sha256: c1d2ac3067038a852cdeb3a085c3394075e9d825c19b96fc25c51e8169eb3475
select did from d where vs in ('s01', 's05', 's09') and vcity like 'c0%' and vn > 50 order by did;

-- case: multi_conjunct_between_ne
-- rows: 238
-- sha256: 186ee5cb049f8f91f432d2c9767532bd2d2a38de90d4ec4bcdc2f48e46d0dfcb
select did from d where vn between 300 and 600 and vs != 's10' and vprice >= 5.25 order by did;

-- case: exists_then_eq_conjuncts
-- rows: 92
-- sha256: cfc5c4b37a16449442f58a939d7613b869f67ec34659b077fd7618d9549c279a
select did from d where json_exists(jdoc, '$.n') and vg = 'grp3' and vn < 500 order by did;

-- case: join_where_multi_conjunct
-- rows: 55
-- sha256: 81c0feaaf547a008a5d7ccb561d53f62d01509c82cb2b0e88c645b4d8faa22c2
select l.lid, a.did from lk l join d a on l.vk = a.vs where a.vn < 300 and a.vg = 'grp0' and l.vw >= 0 order by l.lid, a.did;

-- case: join_small_right_side
-- rows: 100
-- sha256: f114c7f8ca7d7e21e2ecb1621e0e51c26b0cc1a0c2dc689cf8854b2617659f59
select a.did, l.lid from d a join lk l on a.vs = l.vk where a.did < 100 order by a.did, l.lid;

-- case: left_join_multi_conjunct_on
-- rows: 26
-- sha256: 9a962cf25c98303db2b21bc8acaeee654d4f55f357cec0daa2492a3eede2d22b
select l.lid, a.did from lk l left join d a on l.vk = a.vs and a.vn < 100 and a.vg = 'grp2' order by l.lid, a.did;

-- case: join_agg_multi_conjunct
-- rows: 5
-- sha256: 1096cac4b55be3ac8eb302a08b0bd266e1e9cd1fdaa81048692fff7199c72db9
select a.vg, count(*) from d a join lk l on a.vs = l.vk where a.vn >= 0 and l.vw <= 200 group by a.vg order by a.vg;
