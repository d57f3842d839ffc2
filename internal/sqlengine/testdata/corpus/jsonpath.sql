-- JSON path corpus: JSON_TABLE expansion (batch left input feeding the
-- lateral expansion), scalar JSON_VALUE projections, and path filters
-- over nested members and arrays.

-- case: json_table_items
-- rows: 79
-- sha256: 8c6310b288bec4321b5c1d0820f95b7640095e56cab5f4dd3c8fe58c3c89b336
select a.did, jt.q, jt.part from d a, json_table(jdoc, '$.items[*]' columns (q number path '$.q', part varchar2(8) path '$.part')) jt where a.did < 40 order by a.did, jt.q;

-- case: json_table_group
-- rows: 7
-- sha256: 0b7f9d756608deba87abc076f48c113f31f33e861eeb759f0b903bb0e1724ace
select jt.part, count(*) from d, json_table(jdoc, '$.items[*]' columns (part varchar2(8) path '$.part')) jt group by jt.part order by jt.part;

-- case: json_value_city_projection
-- rows: 25
-- sha256: d5bc7570f3c9ba87bca98bf14a20ddf69f0076d6906a8babd52e961d8f336b76
select did, json_value(jdoc, '$.addr.city') from d where did < 25 order by did;

-- case: json_value_array_elem
-- rows: 200
-- sha256: 2a0f77be667745ffba784e51a9b477739973d393bff6ee0512f906e36e2a1580
select did from d where json_value(jdoc, '$.items[0].part') = 'p3' order by did;

-- case: json_value_missing_member
-- rows: 10
-- sha256: 403d756a29ce70e8d2a0742cbc286fc9c6d17d73e81657f9db15aa48306df941
select did, json_value(jdoc, '$.missing') from d where did < 10 order by did;

-- case: json_table_filtered_sum
-- rows: 5
-- sha256: 187eada24b02db61db76bb28d2cf6103eeeed67848f431091575106e86aad57e
select d.vg, sum(jt.q) from d, json_table(jdoc, '$.items[*]' columns (q number path '$.q')) jt where d.vn < 500 group by d.vg order by d.vg;

-- case: json_value_number_mixed_filter
-- rows: 57
-- sha256: 57926172fe137d20ff4d7384ebbbc1d9be82f9077c6673659244e61271ac3f54
select did, json_value(jdoc, '$.price' returning number) from d where vs = 's11' and did > 100 order by did;

-- case: json_table_join_sorted
-- rows: 20
-- sha256: 30ff9077179f57fb895cceb0ca0aeb4cb90aa9387675ab93dc58857b5db6c13a
select a.did, jt.part from d a, json_table(jdoc, '$.items[*]' columns (part varchar2(8) path '$.part')) jt where a.vn between 10 and 30 order by a.did, jt.part limit 20;

-- case: json_exists_nested
-- rows: 1400
-- sha256: e1003d02ef6ba5ae26cc6e28c1249e407b484b3ca771da290cb6e2c8db893645
select did from d where json_exists(jdoc, '$.addr.city') order by did;

-- case: json_value_zip_group
-- rows: 100
-- sha256: a4be6ff05ae6ac3e2e7b0201da8da830f1c319cc59af1f25ee6d08a620f05584
select json_value(jdoc, '$.addr.zip' returning number), count(*) from d group by json_value(jdoc, '$.addr.zip' returning number) order by json_value(jdoc, '$.addr.zip' returning number);
