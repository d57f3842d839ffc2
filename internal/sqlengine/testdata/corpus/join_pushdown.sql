-- Join-side pushdown corpus: WHERE conjuncts that one join input alone
-- answers move below the join (into the input's access path, a filter
-- right above its scan, or a view's own plan); conjuncts over both
-- sides, over a LEFT join's null-supplying side, or of a shape that
-- could raise an error stay above it. The expected rows and digests
-- were produced by the reference engine of the commit before the rule
-- existed, so they do not come from the code under test.

-- case: view_detail_predicate
-- rows: 36
-- sha256: ddc451809f81ffeef9c3872e79763f15b20720f77a99157e75759f0918e2527e
select cid, oid, vamt from ocv where vamt < 40;

-- case: view_master_predicate
-- rows: 16
-- sha256: 4695e6a40bebd03bfac4615166a605cf2f48b1eb05b32c902c8272cc12c34456
select cid, oid from ocv where vname = 'c05' order by oid;

-- case: view_both_sides_grouped
-- rows: 10
-- sha256: 7c9525523601c6f4ef9782029406785fc35b2dc5edecde8452fe73a130413cb4
select cid, count(*), sum(vamt) from ocv where vname < 'c10' and vamt between 100 and 300 group by cid order by cid;

-- case: view_spanning_conjunct
-- rows: 320
-- sha256: 592b230f09f2202f45374aa02d7fe8237e2ae1bf3848234d37fe16ebafcf57d6
select cid, oid from ocv where vamt < cid * 20 order by cid, oid;

-- case: q11_shape_count
-- rows: 1
-- sha256: 3ba8d5dcdc346d43de915d8055c1a1eb3c1010da097f841f8c83c9614ff584c7
select count(*) from d a join d b on json_value(a.jdoc, '$.addr.zip' returning number) - 10000 = b.vn where a.vn between 300 and 420;

-- case: q11_shape_rows
-- rows: 26
-- sha256: 08f3b14bcdb00421e21bee7dcd6c0cddbba4b07ed4b40d38c365db3e0def8b56
select a.did, b.did from d a join d b on json_value(a.jdoc, '$.addr.zip' returning number) - 10000 = b.vn where a.vn between 300 and 330 order by a.did, b.did;

-- case: left_join_null_side
-- rows: 7
-- sha256: ea8f9921f9219e5f8fe0aa2831f47d49eca52cc518b22bbadeccfea5867788b8
select l.lid from lk l left join d a on l.vk = a.vs and a.did < 10 where a.did is null order by l.lid;

-- case: left_join_preserved_side
-- rows: 14
-- sha256: 6f48b48fbc6d060c66a3641d721b8cdb199e185853f9a8de60442132a1418876
select l.lid, a.did from lk l left join d a on l.vk = a.vs where l.vw > 150 and a.did < 60 order by l.lid, a.did;

-- case: left_join_preserved_only
-- rows: 26
-- sha256: efe79d14bf9a7796afb64054772b553de2fdeb27f523ab242ae1b1f08bba49af
select l.lid, a.did from lk l left join d a on l.vk = a.vs and a.did < 30 where l.vw between 40 and 260 order by l.lid, a.did;

-- case: spanning_conjunct
-- rows: 84
-- sha256: a0e40d06e8cd41cf3128dc0859d0ff840c893f79589552a454ad89f9fa2e4863
select a.did, b.did from d a join d b on a.vs = b.vs where a.did < 80 and a.vn > b.vn and b.did < 200 order by a.did, b.did;

-- case: dictprobe_both_sides_filtered
-- rows: 8
-- sha256: b0d5c9ae865780832156c110296ee7c25410bf335c8418d042cd38bf9d3fa981
select a.did, b.did from t a join t b on a.vs = b.vs where a.did < 5 and b.did between 100 and 110;

-- case: fast_join_build_side_null_keys
-- rows: 90
-- sha256: 37362528eb3ab42708ead96372e0c6480a2e33e7cf7db9a01e19aa88d65c431b
select c.cid, o.oid from custs c join orders o on c.vid = o.vk where o.vamt < 100 order by c.cid, o.oid;

-- case: fast_join_build_filter_null_keys
-- rows: 109
-- sha256: 14725476e289d7b382776394887fd36dbd9b8d9c409507d9feb7009f7cabde36
select c.cid, o.oid from custs c join orders o on c.vid = o.vk where o.oid < 120 and c.cid < 45 order by c.cid, o.oid;

-- case: fast_left_join_probe_filter
-- rows: 52
-- sha256: 9cca3305552ad4e82fa653c29cb62e447f1a9199e9de451eda8a75af7e69e303
select c.cid, o.oid from custs c left join orders o on c.vid = o.vk where c.cid > 33 and c.vname < 'c45' order by c.cid, o.oid;

-- case: three_way_innermost
-- rows: 23
-- sha256: a5ae12ccf98ad919f0762670557eb799f9afbfd97639bac1087004455e6ea8a2
select c.cid, o.oid, c2.vname from custs c join orders o on c.vid = o.vk join custs c2 on c2.vid = o.vk where c.vname between 'c03' and 'c05' and o.vamt < 300 order by c.cid, o.oid;

-- case: view_on_one_side
-- rows: 24
-- sha256: 5cda56bc3e5dd33d8eb8c4ff87624dd21eeb3027f04038150fd3372ad5292028
select v.did, l.lid from dv v join lk l on l.vk = v.vs where v.did < 50 and l.vw < 100 order by v.did, l.lid;

-- case: view_on_one_side_unqualified
-- rows: 31
-- sha256: 2d127867150c5362deff8ed86b521f750fd55e52453fd5ef42406d75c95c6a2c
select did, lid from lk l join dv v on l.vk = v.vs where did between 200 and 230 order by did, lid;

-- case: comma_list
-- rows: 45
-- sha256: 58debc4914d9204297d8cc9a727d8722d582d44cf9548f7616f707484a816e7f
select c.cid, o.oid from custs c, orders o where c.vid = o.vk and o.vamt < 50 order by c.cid, o.oid;

-- case: json_table_beside_base_conjunct
-- rows: 9
-- sha256: 62b9c4a2a47f00520398fd27ce972501cd646daf6bd7991946f6ba0c4ba6fe7e
select a.did, jt.q from d a, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where a.did < 9 and jt.q > 1 order by a.did, jt.q;

-- case: pk_probe_in_join
-- rows: 5
-- sha256: eb6518d806cf8a587988aabf4f1cbc28389d702e07eee16eefa1150e3de59a41
select a.did, b.did from d a join d b on a.vs = b.vs where a.did = 7 and b.did < 100 order by b.did;

-- case: unpushable_shape_stays
-- rows: 11
-- sha256: c9525c5dfe8fdecbd5475519f913283f13f79ce5400de15e355004e0120da99c
select a.did, l.lid from d a join lk l on a.vs = l.vk where mod(a.did, 7) = 3 and a.did < 80 order by a.did, l.lid;
