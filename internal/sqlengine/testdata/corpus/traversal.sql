-- Shared-traversal corpus: expressions that carry a window function or
-- an aggregate under a node kind the hand-rolled walkers used to skip
-- (IS NULL, BETWEEN, IN, JSON_VALUE's argument, ORDER BY keys), and a
-- view whose outer WHERE must stay above its window. Every case failed
-- at the commit before the walkers were folded into walkExpr, with
-- "window function lag outside window context" / "aggregate max used
-- outside aggregation context", or (the view) answered from a plan with
-- the filter under the window. Tables: lk (30 rows, lid 0..29, vw =
-- lid*10, vk = 's00'..'s29'), d; view lkw = select lid,
-- (lag(vw) over (order by lid)) is null as first from lk.

-- case: window_under_is_null
-- rows: 30
-- sha256: 86ff632eb08c420816117ab3cc6ac50de61e29071f143e44a75a04749fd77abb
select lid, lag(vw) over (order by lid) is null from lk order by lid;

-- case: window_under_between
-- rows: 30
-- sha256: a4f050ba3c6d7857847032a7b892de8cc8615159ffef4ee45631c49a7685991d
select lid, lag(vw) over (order by lid) between 0 and 20 from lk order by lid;

-- case: window_under_in
-- rows: 30
-- sha256: c9a069553cb1249a6d75245457362976acbad67eefe7f15a7314b6e5a94f6b43
select lid, lag(vw) over (order by lid) in (0, 10) from lk order by lid;

-- case: window_under_like
-- rows: 30
-- sha256: 27e323473a24cbb2af52b0f833e2e205ff343b8fbe7787b3ad5abd40623e94ca
select lid, lag(vk) over (order by lid) like 's0%' from lk order by lid;

-- case: window_in_order_by_key
-- rows: 30
-- sha256: 857d0c1b3fdc0d335e1c66ef3177ea4ebcf332cbd1135942a9e273b52cf1206c
select lid from lk order by lag(vw) over (order by lid) is null, lid desc;

-- case: aggregate_under_json_value
-- rows: 1
-- sha256: 4f5bd9508c5dcffd410276a32bf8d95b56421328f43247a229b4fd3466deb641
select json_value(max(json_query(jdoc, '$.addr')), '$.city') from d;

-- case: aggregate_under_is_null_grouped
-- rows: 5
-- sha256: 1f4c47fb26e721883df7110545bb2cf24b6bdaa3ebaa0fa93fdd4852319b49d2
select vg, max(vn) is null, json_value(min(json_query(jdoc, '$.addr')), '$.zip' returning number) from d group by vg order by vg;

-- case: aggregate_inside_window_argument
-- rows: 5
-- sha256: 1bdb27d98cf1843b072c267afd307f56c96da7f9e99dd448a0731484c38b3957
select vg, lag(count(*)) over (order by vg) from d group by vg order by vg;

-- case: view_filter_stays_above_window
-- rows: 2
-- sha256: e86d6f11da30eb41b789a24c38061a8c49ae15ba8dea15b85910bac49659cc7a
select * from lkw where lid >= 28;

-- case: view_filter_above_window_with_residual
-- rows: 0
-- sha256: 4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945
select lid from lkw where lid >= 1 and first;
