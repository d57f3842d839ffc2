-- Scan and filter corpus: vector-kernel-eligible predicates, dictionary
-- misses, NULL stretches, residual predicates, and raw JSON path
-- filters. Expected row counts are maintained by
--   go test ./internal/sqlengine -run TestQueryCorpus -update-corpus
-- against the reference configuration (text storage, row-at-a-time,
-- serial).

-- case: eq_number
-- rows: 1
-- sha256: fc5f132994c09bdae91216745edbeee44c07f1f1687170c4aa3b4a26f03cfd12
select did from d where vn = 77 order by did;

-- case: eq_number_nullrow
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where vn = 13 order by did;

-- case: between_number
-- rows: 75
-- sha256: 71b5d21e197286fc9ee1df03228cdde263480e5e014775e64d360408943f0595
select did from d where vn between 100 and 180 order by did;

-- case: between_reversed
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where vn between 180 and 100 order by did;

-- case: ge_tail
-- rows: 46
-- sha256: a57ca9ad974c876aa881dbe3c0f1098d93be1f972a85bdf9e85f7adb0630ccdc
select did from d where vn >= 1350 order by did;

-- case: lt_head_residual
-- rows: 18
-- sha256: b6ac9f163ae1953a9ff5335527c6e9d9e86be068c7d66f2a5c802319960758fa
select did from d where vn < 40 and mod(did, 2) = 0 order by did;

-- case: eq_string
-- rows: 61
-- sha256: 8167d05499ca1e5cc99f5f3e10a15efc8d9e80844b81711a2b8b7f9ef53b132a
select did from d where vs = 's05' order by did;

-- case: between_string
-- rows: 244
-- sha256: 5fb1d3106dab2093803e95864c0ec8a666990a3b819c9a669c1beb4ab0e2ffd9
select did from d where vs between 's03' and 's06' order by did;

-- case: string_dict_miss
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where vs = 'zz' order by did;

-- case: string_open_range
-- rows: 120
-- sha256: f0fc6a0c007067b3615ad9f051a6f2d9020a3fa843f63e06f0a3c50ecfc90a29
select did from d where vs > 's20' order by did;

-- case: is_null
-- rows: 108
-- sha256: 9831160ab8ffcc6f40dd2ed6677802dd05bc1d5d866ff5b066d2b0d42a6c3098
select did from d where vn is null order by did;

-- case: is_not_null_head
-- rows: 27
-- sha256: 466cf4cf3da04d66711c8fbb7fa053323afd725c931bb1f66facece0e9f15bd6
select did from d where vn is not null and vn < 30 order by did;

-- case: group_and_range
-- rows: 18
-- sha256: cc76727641a18ca5d68538fe9ea78065fa298f0a56a1cd1e43f467233f2bb1e5
select did, vg from d where vg = 'grp3' and vn > 1300 order by did;

-- case: nested_city
-- rows: 82
-- sha256: 74a5924f24e95afa9f214c25dc74e1f4a176bfb79a46d864ba72e8bb88b649c7
select did from d where vcity = 'c09' order by did;

-- case: decimal_price
-- rows: 28
-- sha256: 3b6ad0b24a954b81e115efb256853b11054497790c593f5df0316489a532f67e
select did from d where vprice = 7.25 order by did;

-- case: raw_path_zip
-- rows: 14
-- sha256: 49985fc7126abdca414ccef8824d434c74eb8e4b269ed6d831491b131c4ba6cd
select did from d where json_value(jdoc, '$.addr.zip' returning number) = 10042 order by did;

-- case: exists_member
-- rows: 20
-- sha256: e00e7b4bc13af8a185979abead72a657ebeb3fdea9cb69a5ffce6b98f9ed126e
select did from d where json_exists(jdoc, '$.n') order by did limit 20;

-- case: not_exists_member
-- rows: 108
-- sha256: 9831160ab8ffcc6f40dd2ed6677802dd05bc1d5d866ff5b066d2b0d42a6c3098
select did from d where not json_exists(jdoc, '$.n') order by did;

-- case: exists_array_index
-- rows: 466
-- sha256: e75106981ee4d86734339fd75d65400a710a8d15731b093c93a31d11d45a5424
select did from d where json_exists(jdoc, '$.items[2]') order by did;

-- case: ne_desc_limit
-- rows: 15
-- sha256: d4a0b3f280803c72b325fc06dc6b06c303f96aa98f2fa4c70e350d034084d45f
select did from d where vn != 0 order by did desc limit 15;

-- case: conj_two_vectors
-- rows: 24
-- sha256: 103823e578fc6d44e83fc91d3a1511174ac863ebc5b144eb9b5d1f6b24797118
select did from d where vs = 's07' and vn between 200 and 800 order by did;

-- case: disjunction_residual
-- rows: 113
-- sha256: d8ef893ddb17dc89d348598aa9b217c7c33002ffe33e2ba39ef84c563c903417
select did from d where vs = 's01' or vn < 60 order by did;
