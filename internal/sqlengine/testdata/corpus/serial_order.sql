-- Serial-order corpus: most queries here carry no ORDER BY on purpose.
-- The ordered partition merge of a parallel scan hands rows up in
-- row-id order, so every configuration must reproduce the reference's
-- first-seen group order, left-major join order and stable sort order
-- bit-for-bit. Also covers all-NULL groups and keys, the implicit
-- group over empty input, left-outer joins with the big table on the
-- probe side (NULL and missing keys), and LIMIT under multi-key sorts.

-- case: group_first_seen_string_all_aggs
-- rows: 23
select vs, count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from d group by vs;

-- case: group_first_seen_number_null_group
-- rows: 1293
select vn, count(*) from d group by vn;

-- case: group_first_seen_minmax_string
-- rows: 23
select vs, min(vs), max(vs) from d group by vs;

-- case: group_first_seen_expr_key
-- rows: 5
select mod(did, 5), count(*), sum(vn), min(vs) from d group by mod(did, 5);

-- case: group_first_seen_filtered_range
-- rows: 23
select vs, count(*) from d where vn between 100 and 1200 group by vs;

-- case: group_first_seen_all_null_aggs
-- rows: 23
select vs, sum(vn) from d where vn is null group by vs;

-- case: group_all_null_key
-- rows: 1
select vn, count(*), sum(vn), min(vs) from d where vn is null group by vn;

-- case: implicit_group_all_aggs
-- rows: 1
select count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from d;

-- case: implicit_group_empty_input
-- rows: 1
select count(*), sum(vn), min(vn) from d where vn < 0;

-- case: group_then_sort_by_count
-- rows: 23
select vs, count(*) from d where mod(did, 2) = 0 group by vs order by count(*) desc, vs;

-- case: join_left_major_number
-- rows: 27
select a.did, l.lid from d a join lk l on a.vn = l.vw;

-- case: left_join_big_probe_number
-- rows: 1400
select a.did, l.lid from d a left join lk l on a.vn = l.vw;

-- case: join_left_major_residual_probe_side
-- rows: 11
select a.did, l.lid from d a join lk l on a.vn = l.vw and a.vprice > 30;

-- case: left_join_big_probe_residual_build_side
-- rows: 1391
select a.did, l.lid from d a left join lk l on a.vn = l.vw and l.lid < 20;

-- case: join_left_major_expr_key
-- rows: 1140
select a.did, l.lid from d a join lk l on mod(a.did, 37) = l.lid;

-- case: join_left_major_filtered_probe
-- rows: 21
select a.did, l.lid from d a join lk l on a.vn = l.vw where a.vprice < 40;

-- case: left_join_big_probe_string
-- rows: 200
select a.did, l.lid from d a left join lk l on a.vs = l.vk where a.did < 200;

-- case: join_then_group_first_seen
-- rows: 23
select l.vk, count(*), sum(a.vprice) from d a join lk l on a.vs = l.vk group by l.vk;

-- case: join_then_sort_desc_limit
-- rows: 40
select a.did from d a join lk l on a.vs = l.vk order by a.vprice desc, a.did limit 40;

-- case: sort_full_single_key
-- rows: 1400
select did from d order by did;

-- case: sort_desc_nulls_then_tiebreak
-- rows: 1400
select did, vn from d order by vn desc, did;

-- case: sort_string_then_id_limit
-- rows: 40
select vs, did from d order by vs, did limit 40;

-- case: sort_two_desc_keys_limit
-- rows: 10
select did from d order by vs desc, vn desc limit 10;
