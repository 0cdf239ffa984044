open Ido_util

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next64 a = Rng.next64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  (* The split stream and the parent's continuation must differ. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next64 a = Rng.next64 b then incr same
  done;
  Alcotest.(check bool) "split independent" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformish () =
  let r = Rng.create 5 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "roughly uniform" true (f > 0.11 && f < 0.14))
    counts

let test_rng_chance () =
  let r = Rng.create 9 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.chance r 0.25 then incr hits
  done;
  let f = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "chance ~ 0.25" true (f > 0.22 && f < 0.28)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng float stays in bound" ~count:200
    QCheck.(pair small_int (float_range 0.5 100.0))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.float r bound in
      v >= 0.0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_range () =
  let z = Zipf.create 100 in
  let r = Rng.create 1 in
  for _ = 1 to 5_000 do
    let k = Zipf.sample z r in
    Alcotest.(check bool) "rank in range" true (k >= 0 && k < 100)
  done

let test_zipf_skew () =
  let z = Zipf.create 1000 in
  let r = Rng.create 2 in
  let top = ref 0 and n = 20_000 in
  for _ = 1 to n do
    if Zipf.sample z r < 10 then incr top
  done;
  (* With s=0.99 over 1000 ranks, the top-10 mass is ~39%. *)
  let f = float_of_int !top /. float_of_int n in
  Alcotest.(check bool) "head-heavy" true (f > 0.25 && f < 0.55)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create 500 in
  let s = ref 0.0 in
  for k = 0 to 499 do
    s := !s +. Zipf.pmf z k
  done;
  Alcotest.(check bool) "pmf normalised" true (abs_float (!s -. 1.0) < 1e-9)

let test_zipf_pmf_monotone () =
  let z = Zipf.create 50 in
  for k = 0 to 48 do
    Alcotest.(check bool) "pmf decreasing" true (Zipf.pmf z k >= Zipf.pmf z (k + 1))
  done

let test_zipf_matches_pmf () =
  let z = Zipf.create 100 in
  let r = Rng.create 3 in
  let n = 100_000 in
  let c0 = ref 0 in
  for _ = 1 to n do
    if Zipf.sample z r = 0 then incr c0
  done;
  let expected = Zipf.pmf z 0 in
  let got = float_of_int !c0 /. float_of_int n in
  Alcotest.(check bool) "empirical matches pmf for rank 0" true
    (abs_float (got -. expected) < 0.02)

(* ------------------------------------------------------------------ *)
(* Cdf *)

let test_cdf_basic () =
  let c = Cdf.create () in
  List.iter (Cdf.add c) [ 0; 0; 1; 3 ];
  Alcotest.(check int) "total" 4 (Cdf.total c);
  Alcotest.(check (float 1e-9)) "cum 0" 0.5 (Cdf.cumulative c 0);
  Alcotest.(check (float 1e-9)) "cum 1" 0.75 (Cdf.cumulative c 1);
  Alcotest.(check (float 1e-9)) "cum 2" 0.75 (Cdf.cumulative c 2);
  Alcotest.(check (float 1e-9)) "cum 3" 1.0 (Cdf.cumulative c 3);
  Alcotest.(check (float 1e-9)) "mean" 1.0 (Cdf.mean c);
  Alcotest.(check int) "median" 0 (Cdf.percentile c 0.5);
  Alcotest.(check int) "p100" 3 (Cdf.percentile c 1.0)

let test_cdf_weights () =
  let c = Cdf.create () in
  Cdf.add ~weight:10 c 2;
  Cdf.add ~weight:30 c 5;
  Alcotest.(check int) "total" 40 (Cdf.total c);
  Alcotest.(check (float 1e-9)) "cum 2" 0.25 (Cdf.cumulative c 2)

let test_cdf_points_monotone () =
  let c = Cdf.create () in
  let r = Rng.create 4 in
  for _ = 1 to 500 do
    Cdf.add c (Rng.int r 20)
  done;
  let pts = Cdf.points c in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-12 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (mono pts);
  Alcotest.(check (float 1e-9)) "last is 1" 1.0 (snd (List.nth pts (List.length pts - 1)))

let prop_cdf_percentile_consistent =
  QCheck.Test.make ~name:"percentile inverts cumulative" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 30))
    (fun xs ->
      let c = Cdf.create () in
      List.iter (Cdf.add c) xs;
      let p50 = Cdf.percentile c 0.5 in
      Cdf.cumulative c p50 >= 0.5
      && (p50 = 0 || Cdf.cumulative c (p50 - 1) < 0.5))

(* ------------------------------------------------------------------ *)
(* Timebase and Render *)

let test_timebase () =
  Alcotest.(check int) "us" 5_000 (Timebase.us 5);
  Alcotest.(check int) "ms" 7_000_000 (Timebase.ms 7);
  Alcotest.(check int) "s" 2_000_000_000 (Timebase.s 2);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Timebase.to_ms 1_500_000)

let test_render_table () =
  let s = Render.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "|  a | bb |"))

let test_render_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Render: ragged row")
    (fun () -> ignore (Render.table ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_render_series_nan () =
  let s =
    Render.series ~x_label:"x" ~columns:[ "c" ] [ ("1", [ nan ]); ("2", [ 0.5 ]) ]
  in
  Alcotest.(check bool) "nan rendered as dash" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| 1 |     - |"))

let test_float_cell () =
  Alcotest.(check string) "small" "0.123" (Render.float_cell 0.1234);
  Alcotest.(check string) "hundreds" "123.5" (Render.float_cell 123.46);
  Alcotest.(check string) "thousands" "1235" (Render.float_cell 1234.6)

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int uniform" `Quick test_rng_int_uniformish;
        Alcotest.test_case "chance" `Quick test_rng_chance;
        qtest prop_rng_float_bounds;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "range" `Quick test_zipf_range;
        Alcotest.test_case "skew" `Quick test_zipf_skew;
        Alcotest.test_case "pmf normalised" `Quick test_zipf_pmf_sums_to_one;
        Alcotest.test_case "pmf monotone" `Quick test_zipf_pmf_monotone;
        Alcotest.test_case "sample matches pmf" `Quick test_zipf_matches_pmf;
      ] );
    ( "util.cdf",
      [
        Alcotest.test_case "basic" `Quick test_cdf_basic;
        Alcotest.test_case "weights" `Quick test_cdf_weights;
        Alcotest.test_case "points monotone" `Quick test_cdf_points_monotone;
        qtest prop_cdf_percentile_consistent;
      ] );
    ( "util.render",
      [
        Alcotest.test_case "timebase" `Quick test_timebase;
        Alcotest.test_case "table" `Quick test_render_table;
        Alcotest.test_case "ragged rejected" `Quick test_render_ragged_rejected;
        Alcotest.test_case "series nan" `Quick test_render_series_nan;
        Alcotest.test_case "float cell" `Quick test_float_cell;
      ] );
  ]
