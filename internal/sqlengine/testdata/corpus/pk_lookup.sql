-- Primary-key lookup corpus (ISSUE 19): `pk = const` in every position
-- the planner recognises or must refuse, constants the key index cannot
-- be probed with (the scan answers those), absent and deleted keys, and
-- a key conjunct under a view, beside a join and inside a FROM subquery.
-- The expected rows were written by hand from corpusDoc / batchDoc /
-- joinOrderDoc, and the digests computed from them outside the engine
-- (sha256 of the rows as fmt.Sprint prints them), so no access path is
-- its own oracle. Keys written by DML are in TestPKLookupMatchesScan.

-- case: pk_eq_const
-- rows: 1
-- sha256: b2480961c6cddefc045350d30d3aa761663d5667ec4e48b47706b094be3babf9
select did, vs from d where did = 5;

-- case: const_eq_pk
-- rows: 1
-- sha256: b2480961c6cddefc045350d30d3aa761663d5667ec4e48b47706b094be3babf9
select did, vs from d where 5 = did;

-- case: pk_eq_qualified
-- rows: 1
-- sha256: 70973736b935c91073a3d3c7f0606aa7f96d000d013bdeaa6170f4301e2ce579
select x.did, x.vg from d x where x.did = 1399;

-- case: pk_eq_residual_true
-- rows: 1
-- sha256: 5cd517abfcd2193964f09f2d641e0627de2d6bd24e86ff3002c8b0ee15f849b3
select did, vn from d where did = 77 and vs = 's08';

-- case: pk_eq_residual_false
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where did = 77 and vs = 's09';

-- case: pk_eq_residual_first
-- rows: 1
-- sha256: 70a9ec21aafb1355d5e29cd793b037fd30d343eda7997272594d66f74c08ce02
select did from d where json_exists(jdoc, '$.n') and 79 = did;

-- case: pk_eq_residual_absent_member
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where json_exists(jdoc, '$.n') and 78 = did;

-- case: pk_eq_twice_contradict
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where did = 5 and did = 6;

-- case: pk_eq_or_no_lookup
-- rows: 2
-- sha256: e486fc396d5286984e6642e4b6f922b6b9cad8a2bd943bd7f1867f5e7896a4a3
select did from d where did = 5 or did = 1399 order by did;

-- case: pk_absent
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where did = 1400;

-- case: pk_deleted
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from td where did = 3;

-- case: pk_beside_deleted
-- rows: 1
-- sha256: 0ed8ce729effe81b9a50de29f1661fc7d107479eca48d7d307e28377dc5d5f08
select did, vs from td where did = 4;

-- case: pk_string_const
-- rows: 1
-- sha256: 77471ebe3613f4714666523fa961eb443f57dc2396a31528afdbbea86fadc8f8
select did from d where did = '5';

-- case: pk_decimal_const
-- rows: 1
-- sha256: 77471ebe3613f4714666523fa961eb443f57dc2396a31528afdbbea86fadc8f8
select did from d where did = 5.0;

-- case: pk_exponent_const
-- rows: 1
-- sha256: 77471ebe3613f4714666523fa961eb443f57dc2396a31528afdbbea86fadc8f8
select did from d where did = 5e0;

-- case: pk_fraction_const
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where did = 5.5;

-- case: pk_wide_const
-- rows: 1
-- sha256: 77471ebe3613f4714666523fa961eb443f57dc2396a31528afdbbea86fadc8f8
select did from d where did = 5.00000000000000000001;

-- case: pk_null_const
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from d where did = null;

-- case: pk_under_view
-- rows: 1
-- sha256: 9b0549e28a4e6518a1bc063d700e1f2ebbe62383a213c91cdd4913a3e1bbe4bc
select did, vs from dv where did = 6;

-- case: pk_under_view_residual
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select did from dv where did = 6 and vs = 's07';

-- case: pk_join_side
-- rows: 1
-- sha256: 521dfc0dfc53f3d8a7b0935009be7d5cb6998a6f9c70df5b36db04475158dc5b
select o.oid, c.vname from orders o join custs c on o.vk = c.vid where o.oid = 40;

-- case: pk_lookup_table
-- rows: 1
-- sha256: 5b321ad9b0941fe3d08fcd1d4841d44eabf89d3b94eaa80786fc3bdeb858e5bf
select lid, vw from lk where lid = 29;

-- case: pk_agg_one_row
-- rows: 1
-- sha256: caf14204e5ce4a31daa0f9fb67ffa9906a12632aad3158130c3911e1ff7915b0
select count(*), count(vn) from d where did = 26;

-- case: pk_in_from_subquery
-- rows: 1
-- sha256: cdeb7c05a0964529754c21cc14bac320ed1d761e3db3f47050a402bd8a32b883
select q.did from (select did, vs from d where did = 9) q where q.vs = 's09';
