-- Serial-order corpus: most queries here carry no ORDER BY on purpose.
-- The ordered partition merge of a parallel scan hands rows up in
-- row-id order, so every configuration must reproduce the reference's
-- first-seen group order, left-major join order and stable sort order
-- bit-for-bit. Also covers all-NULL groups and keys, the implicit
-- group over empty input, left-outer joins with the big table on the
-- probe side (NULL and missing keys), and LIMIT under multi-key sorts.

-- case: group_first_seen_string_all_aggs
-- rows: 23
-- sha256: 3b0bb3dfa1ef5910cce696c64f5a3f6c20adb34c878b503fde538195cad77b6c
select vs, count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from d group by vs;

-- case: group_first_seen_number_null_group
-- rows: 1293
-- sha256: 740a83b37a036947425f3763ba3f88fe0254ff67d9c5754a119605b4531f5fed
select vn, count(*) from d group by vn;

-- case: group_first_seen_minmax_string
-- rows: 23
-- sha256: 430ad3744e08740cc1a4ec4e95d8a228a3fb9c168ee3cda1690535451eb7fd21
select vs, min(vs), max(vs) from d group by vs;

-- case: group_first_seen_expr_key
-- rows: 5
-- sha256: 1068c7558abdd46cad5d107ab7e5240eedcd7b800f0efcb00e8fd25bca182d3b
select mod(did, 5), count(*), sum(vn), min(vs) from d group by mod(did, 5);

-- case: group_first_seen_filtered_range
-- rows: 23
-- sha256: a8e5aa38a8f9f45bdfd74a0d6be0020358aba4075fe8c66d34af7ca049844bec
select vs, count(*) from d where vn between 100 and 1200 group by vs;

-- case: group_first_seen_all_null_aggs
-- rows: 23
-- sha256: 7a3aa83e4f491cb95bd4be47a2fa294935a0225d84fc5b7c862c6426a0a735d9
select vs, sum(vn) from d where vn is null group by vs;

-- case: group_all_null_key
-- rows: 1
-- sha256: 240425fd932278bd5b51303d5df6c0a8860c6424124d6444f4a6ef0d86ae987e
select vn, count(*), sum(vn), min(vs) from d where vn is null group by vn;

-- case: implicit_group_all_aggs
-- rows: 1
-- sha256: 33a99505cde2c938a6ee957fd126f8b2776c7b061c10e54db99253ce17c5efcf
select count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from d;

-- case: implicit_group_empty_input
-- rows: 1
-- sha256: 7b7764d63da9c2bc775f0647dfcb6b33a26746eb0c52e86827d6f0fd55a61858
select count(*), sum(vn), min(vn) from d where vn < 0;

-- case: group_then_sort_by_count
-- rows: 23
-- sha256: 492ae4310b59ea32309f95b21b913f4c803ada6041a67402d43554232051f9a3
select vs, count(*) from d where mod(did, 2) = 0 group by vs order by count(*) desc, vs;

-- case: join_left_major_number
-- rows: 27
-- sha256: c75ff34b092f448b0dc2c02f05977dc062ecacc703516582cc01ef72fc67b872
select a.did, l.lid from d a join lk l on a.vn = l.vw;

-- case: left_join_big_probe_number
-- rows: 1400
-- sha256: 72f317d90bf586543e2aada7a193c8c2386c7d6dfecf80d7c61f4f9677bd8d97
select a.did, l.lid from d a left join lk l on a.vn = l.vw;

-- case: join_left_major_residual_probe_side
-- rows: 11
-- sha256: 405b9032bc3f9632a56151a54e38170a74caa7d8b7f0dffddaf162905656c47c
select a.did, l.lid from d a join lk l on a.vn = l.vw and a.vprice > 30;

-- case: left_join_big_probe_residual_build_side
-- rows: 1391
-- sha256: 39f6dbb252cad2914a9a57161a7915061299ac9e9f7d732339aa4f88132ef59c
select a.did, l.lid from d a left join lk l on a.vn = l.vw and l.lid < 20;

-- case: join_left_major_expr_key
-- rows: 1140
-- sha256: af5dc65d3756eea3711972dd28110da28d4870bdbfe1c3b49090a8f918fa757b
select a.did, l.lid from d a join lk l on mod(a.did, 37) = l.lid;

-- case: join_left_major_filtered_probe
-- rows: 21
-- sha256: 1a00f88092c23cf1024b53b02fee3c4f40d8c81205383113376194d3a8dcef7c
select a.did, l.lid from d a join lk l on a.vn = l.vw where a.vprice < 40;

-- case: left_join_big_probe_string
-- rows: 200
-- sha256: 2884bae13e0714d06eb8e46a61b6082291e39b21a84bb3e95a5ea799b5065821
select a.did, l.lid from d a left join lk l on a.vs = l.vk where a.did < 200;

-- case: join_then_group_first_seen
-- rows: 23
-- sha256: a7b1419916ff93e91529518e4ad2261a81ee53a779ab445fd2d1a9120ec7cec6
select l.vk, count(*), sum(a.vprice) from d a join lk l on a.vs = l.vk group by l.vk;

-- case: join_then_sort_desc_limit
-- rows: 40
-- sha256: a8cf8e5fce046e4a25eb8a4aecf2e2fba75020eea103e8803d07fd697ff6c26b
select a.did from d a join lk l on a.vs = l.vk order by a.vprice desc, a.did limit 40;

-- case: sort_full_single_key
-- rows: 1400
-- sha256: e1003d02ef6ba5ae26cc6e28c1249e407b484b3ca771da290cb6e2c8db893645
select did from d order by did;

-- case: sort_desc_nulls_then_tiebreak
-- rows: 1400
-- sha256: 9badfff201c63ac3839ac642ef23dfd9b15e07ad46acec179b25082af7708b3f
select did, vn from d order by vn desc, did;

-- case: sort_string_then_id_limit
-- rows: 40
-- sha256: 2a2ecf7b7f5eeecf85677fc66f807753c756d8a3f9df78d6ab926ce986e77bcb
select vs, did from d order by vs, did limit 40;

-- case: sort_two_desc_keys_limit
-- rows: 10
-- sha256: 827569ae63bd01991edb151f198a66ea7168d28deaa2a1a23afacb84d08ad287
select did from d order by vs desc, vn desc limit 10;
