-- Sort and limit corpus: ORDER BY materialization through batch pulls,
-- LIMIT budget pushdown into batch production, NULL ordering, and
-- multi-key sorts.

-- case: sort_number_limit
-- rows: 30
-- sha256: f1c387b31383dcbdb90f939a9a22cde1c97d2b058cff4237d9cb5188234893f1
select did, vn from d order by vn, did limit 30;

-- case: sort_string_desc_tiebreak
-- rows: 25
-- sha256: 6d8c974026b0540ef1969276383eb19900d7e671ecafefb601cbaa21c56d6ab1
select did from d order by vs, did desc limit 25;

-- case: sort_desc_top10
-- rows: 10
-- sha256: 568da2c9b457bd656f5368f4cb6bb2c2da75f6b69c197c39b33cf71433ec7e10
select did from d where vn > 1000 order by vn desc limit 10;

-- case: limit_zero
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d order by did limit 0;

-- case: limit_oversized
-- rows: 61
-- sha256: 549f2968f6931d70552edda178f586553d76fdd5fb8ae6a2b68c5ac6cdeeac14
select did from d where vs = 's01' order by did limit 1000;

-- case: sort_price_desc
-- rows: 18
-- sha256: 81a60a61f96829f5680a985126d2fe8d85912670191c040d9dd772a9d76f4f38
select vprice, did from d order by vprice desc, did limit 18;

-- case: sort_expr_key
-- rows: 40
-- sha256: e08b99381611385736a7de26d9952407d5185fad48d586984811e64bf2c30746
select did from d order by mod(did, 11), did limit 40;

-- case: sort_city_window
-- rows: 33
-- sha256: d734856a901e82ad166d6f8cb1a76f9769b102d9af07c99763a295c1cc67cb39
select did, vcity from d where vn between 30 and 700 order by vcity, did limit 33;

-- case: limit_exact_chunk_edge
-- rows: 1024
-- sha256: f6f352709d8174dab4dde156487b21c143fbecc043aafde637bc8742459fe766
select did from d order by did limit 1024;

-- case: limit_mid_chunk
-- rows: 1000
-- sha256: 149ab8fe12c6273eab0688965afc824ae586d31930dc04234955996859118c2c
select did from d where vn is not null or vn is null order by did limit 1000;

-- case: sort_nulls_last_probe
-- rows: 1400
-- sha256: 6b40ea2d10ef52de9f77b89df93e93fa8500243fbeb6f1cdda7acf64c29bdaea
select did, vn from d order by vn, did;

-- case: window_row_number
-- rows: 14
-- sha256: 471c3f2cae1086631d5342e30101e83f7c0705fb2534ab97c9c2f239797a5b2c
select did, row_number() over (order by did) from d where vn < 16 order by did limit 15;
