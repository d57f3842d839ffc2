-- Join corpus: cross-table numeric equi-joins (code-space probe in the
-- IMC configuration), string self-joins sharing one dictionary, outer
-- joins with probe misses, residuals, and joins feeding aggregation.

-- case: join_lookup_string
-- rows: 40
-- sha256: 4fc4ad8f6dbb403c1f59b85566161f21fdd622a30f24157cfd0f7c1f0f7b606f
select l.lid, a.did from lk l join d a on l.vk = a.vs where a.did < 40 order by l.lid, a.did;

-- case: join_lookup_agg
-- rows: 23
-- sha256: 85fc56e2bae13e7235afb5cc8f25d2512cb2223fac29364c29fec5def97b81eb
select l.lid, count(*) from lk l join d a on l.vk = a.vs group by l.lid order by l.lid;

-- case: left_join_lookup_residual
-- rows: 32
-- sha256: 828158029df682f42bae6802d0b68fcddaded178ac74c878b7146b4bcf1c40aa
select l.lid, a.did from lk l left join d a on l.vk = a.vs and a.did < 25 order by l.lid, a.did;

-- case: self_join_number
-- rows: 27
-- sha256: 4c98937e02d80063f1ca6719146758c022506c928eee0e6da4cb64ba112da154
select a.did, b.did from d a join d b on a.vn = b.vn where a.did < 30 order by a.did, b.did;

-- case: self_join_string_bounded
-- rows: 8
-- sha256: 455862ffda11935b3416491b7eed8ac7c99b38ff0d2d33ec4225e8b2baed666b
select a.did, b.did from d a join d b on a.vs = b.vs and b.did < 8 where a.did < 8 order by a.did, b.did;

-- case: left_self_join_number
-- rows: 102
-- sha256: c1bac9d1f091233f09585fe274ad02954db88c697232bae5f9426d192d345ea2
select a.did, b.did from d a left join d b on a.vn = b.vn and b.did < 100 where a.did < 120 order by a.did, b.did;

-- case: self_join_string_agg
-- rows: 23
-- sha256: dc826a2c89f7ca122759c2145f7eb20ab2ec5816ef292138b0abb14416147b0e
select a.vs, count(*) from d a join d b on a.vs = b.vs and b.did < 23 group by a.vs order by a.vs;

-- case: join_number_cross_table
-- rows: 27
-- sha256: c75ff34b092f448b0dc2c02f05977dc062ecacc703516582cc01ef72fc67b872
select a.did, l.lid from d a join lk l on a.vn = l.vw where a.did < 300 order by a.did, l.lid;

-- case: left_join_number_cross_table
-- rows: 30
-- sha256: ffa4ec6827b2897fb9da1d83b7c0b3ea4bf900c3c48af86373c87d1d239b0a6b
select l.lid, a.did from lk l left join d a on l.vw = a.vn order by l.lid, a.did;

-- case: join_raw_path_key
-- rows: 40
-- sha256: 4fc4ad8f6dbb403c1f59b85566161f21fdd622a30f24157cfd0f7c1f0f7b606f
select l.lid, a.did from lk l join d a on json_value(l.jdoc, '$.k') = a.vs where a.did < 40 order by l.lid, a.did;

-- case: join_then_sort_limit
-- rows: 17
-- sha256: 8a6acd93ddbfb074d1262422bebde1d9582725da5194e1e6ab143a1271c07383
select a.did, b.did from d a join d b on a.vn = b.vn where a.vn between 60 and 90 order by a.did desc limit 17;

-- case: join_residual_price
-- rows: 40
-- sha256: af6aec28eac30835d7bdd9f9c3d66609766e1dc418cd7f6b7ffc9b4f290c2c2f
select a.did, b.did from d a join d b on a.vs = b.vs and b.vprice > 40 where a.did < 12 order by a.did, b.did limit 40;
