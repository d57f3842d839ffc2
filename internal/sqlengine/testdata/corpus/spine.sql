-- Execution-spine corpus: the query lists of the differential tests
-- that used to compare batch execution against the row-at-a-time
-- operators (grouped aggregation and its code-space fast path, sort and
-- LIMIT budgets, the code-space hash join, string self-joins over live
-- and tombstoned rows, and the vector-kernel scan ladder). Tables: t
-- (2600 docs, rows 1024..2047 without "n": an all-null chunk), td (the
-- first 1100 docs of t with the 'w003' rows deleted, its store populated
-- over the tombstones),
-- orders/custs (600 x 50, NULL build keys on every 11th order,
-- customers 37..49 unmatched). The digests were taken from the
-- row-at-a-time, serial, no-vector reference before those operators
-- were deleted.

-- case: agg_dict_key_all_aggs
-- rows: 7
-- sha256: 9fc1e48e71082ac923b6f8af415348476a76c915c25346105b5bbc49fda61f10
select vs, count(*), count(vn), sum(vn), avg(vn), min(vn), max(vn) from t group by vs order by vs;

-- case: agg_string_minmax_code_space
-- rows: 7
-- sha256: 61d1a5a371e6e5c3205b311bcdf3cbf8767c31f23805582ad71684047d2195ca
select vs, min(vs), max(vs) from t group by vs order by vs;

-- case: agg_float_bits_null_group
-- rows: 1577
-- sha256: 2123781520c8a06437f0b3a096a534df5403bc4b002d5f6382b6218fdd9f366e
select vn, count(*) from t group by vn order by vn;

-- case: agg_over_vector_filter
-- rows: 7
-- sha256: 8251a55536a0dbbca4480803ca0b53f7b390ce0beeaeec3beae5e3486b4ce10b
select vs, count(*) from t where vn between 100 and 2200 group by vs order by vs;

-- case: agg_expr_key_declines_fast
-- rows: 3
-- sha256: 9658d3201f2809b879bcfc130d50fd4509c649b2c40307c0533947719eb0d3b0
select mod(did, 3), count(*) from t group by mod(did, 3) order by mod(did, 3);

-- case: agg_nonvector_arg_declines_fast
-- rows: 7
-- sha256: 6a056bc3ed85b7270a5072d9f33238cbe31f85c49c87d4f15e72eaf1a8b3d693
select vs, sum(did) from t group by vs order by vs;

-- case: agg_residual_predicate
-- rows: 7
-- sha256: c64965a466b8c474bb59f2dddfee5f335f1dff09598eae646b4594406cbe61a7
select vs, count(*) from t where mod(did, 2) = 0 group by vs order by vs;

-- case: agg_implicit_group
-- rows: 1
-- sha256: 253fd12d28b9399fe5c503e27bf8a121ae43244c78b18ec1ebfc73a1f8b3945e
select count(*), sum(vn), min(vs) from t;

-- case: agg_all_null_input
-- rows: 7
-- sha256: e868946b8eccd3efecf64fdc6f54100743db558f25a426ffb0972a106193fc03
select vs, sum(vn) from t where vn is null group by vs order by vs;

-- case: agg_bound_0_500
-- rows: 7
-- sha256: 49eba7910ebdba11ed2230c2ed9fd93be63a63e8e7a15e48893b2c0701cdb863
select vs, count(*) from t where vn between 0 and 500 group by vs order by vs;

-- case: agg_bound_null_chunk_edge
-- rows: 7
-- sha256: 5733c203eb15c535be38d29f391f73b8211d2191b3d90c18736686ac95d33c83
select vs, count(*) from t where vn between 2048 and 2599 group by vs order by vs;

-- case: agg_bound_reversed
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select vs, count(*) from t where vn between 700 and 600 group by vs order by vs;

-- case: sort_desc_limit
-- rows: 25
-- sha256: c36f1176ba6df97edd83c5d5fd1fd78a47fdad939edab7f6e2674a6d762fe5da
select did, vn from t where vn between 50 and 2400 order by vn desc limit 25;

-- case: sort_two_keys_limit
-- rows: 40
-- sha256: b94ba2f9084325f32baad0eb3f63c91a413ba4e0e8d44690233301585e56fd92
select vs, did from t order by vs, did limit 40;

-- case: sort_pk_limit
-- rows: 7
-- sha256: fa71225bf6225a22b4fe107fc3f0878163b9fcfd389ad6bcc732bfd183af793e
select did from t order by did limit 7;

-- case: sort_limit_above_result
-- rows: 30
-- sha256: 7d1e932913024ac7ee68ba44e03e90d39e9bf687aeee690876a0522153aea985
select did from t where vn < 30 order by did limit 500;

-- case: sort_limit_zero
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from t order by did limit 0;

-- case: sort_deep_all_chunks
-- rows: 10
-- sha256: 3cc13e0a5b4dd9820914870124c33e84056e0cfeb60a0c616ef8d72afedcc4f8
select did from t order by vs desc, vn desc limit 10;

-- case: join_code_space_inner
-- rows: 545
-- sha256: c23674fff578dfa41f7c17f2179022c6a0989cdfd1abfe82c9b102ed837aeda5
select c.cid, o.oid from custs c join orders o on c.vid = o.vk order by c.cid, o.oid;

-- case: join_code_space_left_outer
-- rows: 558
-- sha256: 45c3d45c4bf08df96dcb40d58f8d24dd71137939fad63b99f2762a1505ca900c
select c.cid, o.oid from custs c left join orders o on c.vid = o.vk order by c.cid, o.oid;

-- case: join_residual_inner
-- rows: 272
-- sha256: 938e8ea77cbab5712d3e70de447a4514f4ce3a11f89abdd239e1e07eb0b81325
select c.cid, o.oid from custs c join orders o on c.vid = o.vk and o.vamt > 300 order by c.cid, o.oid;

-- case: join_residual_left_outer
-- rows: 194
-- sha256: 8eaa468dddae68ea6ae45788b071baecd04e773de5929bcbe5d98b18a3775050
select c.cid, o.oid from custs c left join orders o on c.vid = o.vk and o.vamt > 400 order by c.cid, o.oid;

-- case: join_feeding_group_by
-- rows: 37
-- sha256: 01ddfaddee4ae0922fa3a12de274a47c4d7e2ceac081d0d0ed0d1c8e67a6b9b9
select c.cid, count(*) from custs c join orders o on c.vid = o.vk group by c.cid order by c.cid;

-- case: join_expr_key_declines_fast
-- rows: 50
-- sha256: 84f5f33eb8cd120dab89bd5c4eb177a8764de68b438bf41cfa7ae20c5403508f
select c.cid, o.oid from custs c join orders o on c.vid = mod(o.oid, 37) order by c.cid, o.oid limit 50;

-- case: self_join_dict_codes
-- rows: 13
-- sha256: 84e6e596aa0a4bf3bd96db0f8197c6ebda7cc0b003d426a9e6046573d2958230
select a.did, b.did from t a join t b on a.vs = b.vs and b.did < 15 where a.did < 6 order by a.did, b.did;

-- case: self_join_dict_codes_grouped
-- rows: 7
-- sha256: d2c1652fb0d97a0d8e8e5f995298571492616d6e1b22dd8e15ca2ec069bbf258
select a.vs, count(*) from t a join t b on a.vs = b.vs and b.did < 10 group by a.vs order by a.vs;

-- case: self_join_tombstones
-- rows: 11
-- sha256: dc0765e7ed5e3c8d2f6a591e16b93be5b319c67c16a51b274c3b18241a4a10a1
select a.did, b.did from td a join td b on a.vs = b.vs and b.did < 15 where a.did < 6 order by a.did, b.did;

-- case: self_join_tombstones_grouped
-- rows: 6
-- sha256: a128c147e7d8d167c2c3ca68ea0122d1ba3ced1178edd3ea0f46a5f3bd374d76
select a.vs, count(*) from td a join td b on a.vs = b.vs and b.did < 10 group by a.vs order by a.vs;

-- case: self_join_tombstones_by_row_id
-- rows: 2
-- sha256: ff36c90b1a1afc6e5ca26fb42605f6d1e7ec93884b91e07305c0a05389a136b7
select a.did, b.did from td a join td b on a.vs = b.vs where a.did < 1 and b.did between 1 and 14 order by a.did, b.did;

-- case: scan_tombstones_vector_filter
-- rows: 6
-- sha256: 1efe4b057f3b1173f8fbd0aefe442cf947561f9e56179382906e0b93ef40b022
select did, vn from td where vs = 'w004' and vn < 40 order by did;

-- case: agg_tombstones_dict_key
-- rows: 6
-- sha256: 72bfd868601e6b1548a295eff215bd293ab7da72952b6a5c0dd0eb48fa7ebbc7
select vs, count(*), min(vn), max(vn) from td group by vs order by vs;

-- case: scan_eq_number
-- rows: 1
-- sha256: f61d0f7aee2b3c93c7c0efdf268606eda07dff009674a008e50188bbd9822224
select did from t where vn = 7;

-- case: scan_between
-- rows: 100
-- sha256: 8be3f68e7912380eb089ea5d746007db4e2437aeeefa116d0ca5fae3cdd4634d
select did from t where vn between 100 and 199;

-- case: scan_between_reversed
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from t where vn between 199 and 100;

-- case: scan_ge_tail
-- rows: 100
-- sha256: c3fd8d5c80723e0f141c2d1a67631cea3c393f4a98b2fc6ffe43b27308c28b40
select did from t where vn >= 2500;

-- case: scan_lt_across_null_stretch
-- rows: 1024
-- sha256: f6f352709d8174dab4dde156487b21c143fbecc043aafde637bc8742459fe766
select did from t where vn < 1100;

-- case: scan_ne
-- rows: 1575
-- sha256: c387042d32311c86281d4f316bfdb9e532a8afa16859163d8ea98c2e8c9174c1
select did from t where vn != 0;

-- case: scan_eq_string
-- rows: 371
-- sha256: 1b4d2c2cde27592b5e54c7f7c845b0da62571351e3caf5f4f9bb45bcac1cc5d6
select did from t where vs = 'w003';

-- case: scan_between_string
-- rows: 1114
-- sha256: 386b93f8edb2c652a7ca71cd0708f86a0e5aa86563a1c4c71ff35b8fe2879a53
select did from t where vs between 'w002' and 'w004';

-- case: scan_string_dict_miss
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from t where vs = 'nosuchword';

-- case: scan_string_above_dict
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from t where vs > 'w900';

-- case: scan_type_mismatch_residual
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from t where vn = 'x';

-- case: scan_kernel_plus_residual
-- rows: 29
-- sha256: e6e4fba7ea109bc8585ea4633fefacb68e907a7833bec581a338a45591b90da1
select did from t where vn between 2048 and 2105 and mod(did, 2) = 0;

-- case: scan_bound_at_open
-- rows: 11
-- sha256: 8c22be3392c64f028a82de80bb8a2bf89d71156ae730f5a6f79ad3cf4f318fe1
select did from t where vn between 300 and 310;

-- case: join_limit_budget
-- rows: 5
-- sha256: 5fb8b74afe29580cf22e3618527294ee33cd683d040edbebb580e3cccca86eeb
select a.did, b.lid from d a join lk b on a.vs = b.vk limit 5;

-- case: cross_join_limit_budget
-- rows: 5
-- sha256: 1be6348beb262cf2da52e2d56bc1928255c50c47c497225963d20985125fb854
select a.did, b.lid from d a, lk b limit 5;

-- case: having_over_group_by
-- rows: 3
-- sha256: ed033e7757026aa883b003d148776aaeaa21e60f915a044285eec398b25da6bc
select vs, count(*) from t group by vs having count(*) > 371 order by vs;

-- case: window_then_limit
-- rows: 7
-- sha256: 941c62433c6196b5e6eb7be350eb42373490f31141b7c0c94472ff50fe23b50d
select did, lag(did) over (order by did) from t where did < 20 limit 7;

-- case: filter_over_alias_over_sort_two_batches
-- rows: 700
-- sha256: cf874855363d90e34d9fed256b402aef5b81cbb3ed67dc27c499b6333448a80b
select x.did from (select did from t order by did desc limit 1500) x where mod(x.did, 2) = 0 limit 700;

-- case: filter_over_join_two_batches
-- rows: 272
-- sha256: 0d700b693f4752b197e4f1af10646ae27ff8231270a8a12e6f4b346d3e461e5c
select c.cid, o.oid from custs c join orders o on c.vid = o.vk where mod(o.oid, 2) = 0;

-- case: cross_join_two_batches
-- rows: 1225
-- sha256: affa25349faf5ce103dfc8a753f492c60750402eb610fb9455e3ce1c2ac9f5c5
select a.cid, b.cid from custs a, custs b where a.cid < b.cid;

-- case: json_table_over_sorted_subquery
-- rows: 9
-- sha256: fd7d304cb9ee46c0ae95d37b62c2a52cd65efbc4fc669aeab2030a70114cb4c1
select x.did, jt.q from (select did, jdoc from d order by did desc limit 5) x, json_table(x.jdoc, '$.items[*]' columns (q number path '$.q')) jt;

-- case: left_join_filter_project_limit
-- rows: 92
-- sha256: ca272b5055f7f235d9fae9b2b548e954ee45b06b6b743339b78d48241c36180b
select a.did, b.vw + 1 from d a left join lk b on a.vs = b.vk where a.vn > 1300 limit 1100;
