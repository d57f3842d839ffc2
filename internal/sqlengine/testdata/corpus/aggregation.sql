-- Grouped-aggregation corpus: dictionary-code and float-bits fast-path
-- shapes, declined shapes (expression keys, multi-key, non-vector
-- arguments), NULL aggregate semantics, and HAVING.

-- case: group_string_count
-- rows: 23
-- sha256: dc826a2c89f7ca122759c2145f7eb20ab2ec5816ef292138b0abb14416147b0e
select vs, count(*) from d group by vs order by vs;

-- case: group_string_all_aggs
-- rows: 23
-- sha256: 7952030818666a1476f4659ab352244c5c9031b51cc0eec2ea1f7018d473fad2
select vs, count(vn), sum(vn), avg(vn), min(vn), max(vn) from d group by vs order by vs;

-- case: group_minmax_string
-- rows: 5
-- sha256: 69b230c875646ed382b6a55cc1f79632304df819ea82c1d31e8ed3b9311e0afb
select vg, min(vs), max(vs) from d group by vg order by vg;

-- case: group_number_key
-- rows: 46
-- sha256: 68f98dd5a36c357d0f60e7fb73a1a41a4fde0500408b9d90aefcd277262f3d7d
select vn, count(*) from d where vn < 50 group by vn order by vn;

-- case: count_star
-- rows: 1
-- sha256: ffa0237c57e3ec0faf65532f7b2dafd293f620ce919784d3c2c288f12fcc3c0d
select count(*) from d;

-- case: count_sum_nulls
-- rows: 1
-- sha256: 786ba8faee548303528b08c86bbcb4149ad1bddd23c2bf93f4f564c301969dde
select count(vn), sum(vn) from d;

-- case: group_filtered_range
-- rows: 5
-- sha256: 577091c7368b92daa99564da9816a9e82a41d0df4b2392c641d58a2912ce50ec
select vg, count(*) from d where vn between 200 and 900 group by vg order by vg;

-- case: group_expr_key
-- rows: 7
-- sha256: b0ba328d618f44ee1f75722056138a5e38a5790c4e1312bdcdc79a0a475b6a51
select mod(did, 7), count(*) from d group by mod(did, 7) order by mod(did, 7);

-- case: group_nonvector_arg
-- rows: 23
-- sha256: 99fe174922ae11f88f09380109cec8e28753f268d457495ebad6eebd451f59ff
select vs, sum(did) from d group by vs order by vs;

-- case: group_nested_city
-- rows: 17
-- sha256: 7251ff466dce2cbc05063fcd4238c461a1d0b4524822692dafaecadd34ecb6cb
select vcity, count(*) from d group by vcity order by vcity;

-- case: group_avg_price
-- rows: 5
-- sha256: db7dc0b0308c3ca39d7ed86925c6a88a312d65cb6bf8907774109374c378a6b0
select vg, avg(vprice) from d group by vg order by vg;

-- case: group_residual_filter
-- rows: 23
-- sha256: a13cba72322b681770e102ebfec34d18ec568f1e1c26c29e12a747823933f79d
select vs, count(*) from d where mod(did, 3) = 0 group by vs order by vs;

-- case: group_number_desc_limit
-- rows: 12
-- sha256: c2237a9dc6d5b975ae4f8f8182b45ea355a479ca70de13ab3a564ee49a7363e6
select vn, count(*) from d group by vn order by vn desc limit 12;

-- case: group_two_keys
-- rows: 115
-- sha256: b477f2e4303b79adc88ed01a2b9449e07159829f5aa59cf2f4305defd67dbe6f
select vg, vs, count(*) from d group by vg, vs order by vg, vs;

-- case: count_all_null
-- rows: 1
-- sha256: 57c739996c8dbda9696fbec42ffcde3de7ea412f18f8698726712ddc547a7d9c
select count(*) from d where vn is null;

-- case: group_having
-- rows: 20
-- sha256: b551b04bfb888803a3bce10334986a70cb61bb6dc661673f0f91e435df228dd2
select vs, count(*) from d group by vs having count(*) > 60 order by vs;

-- case: group_sum_null_slice
-- rows: 23
-- sha256: 5830c04b79fb4250020bced769eb0ba6fd247ddce97a106aa63ed9d27e55cadf
select vs, sum(vn) from d where vn is null group by vs order by vs;

-- case: agg_over_join_key_range
-- rows: 23
-- sha256: 5546eea8cb73edcaf86cbfedc6c8f1fc983b264bfd1e9e6ec9b46d1a472adcf1
select vs, min(vn), max(vn) from d where vn is not null group by vs order by vs;
