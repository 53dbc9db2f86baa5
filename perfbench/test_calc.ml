(* The benchmark's own arithmetic: percentiles, self time, per-op
   normalisation and the result line. *)

open Perfbench

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_nearest_rank () =
  Alcotest.(check int) "p50 of 1000" 500 (Calc.nearest_rank ~pct:50 1000);
  Alcotest.(check int) "p99 of 1000" 990 (Calc.nearest_rank ~pct:99 1000);
  Alcotest.(check int) "p99 of 1001 rounds up" 991 (Calc.nearest_rank ~pct:99 1001);
  Alcotest.(check int) "p50 of 1" 1 (Calc.nearest_rank ~pct:50 1);
  Alcotest.(check int) "p1 of 10" 1 (Calc.nearest_rank ~pct:1 10);
  Alcotest.(check bool) "pct 100 refused" true (raises (fun () -> Calc.nearest_rank ~pct:100 10));
  Alcotest.(check bool) "no samples refused" true (raises (fun () -> Calc.nearest_rank ~pct:50 0))

let test_percentile () =
  (* 1000 samples in reverse order: value i+1 at rank i+1 once sorted *)
  let xs = Array.init 1000 (fun i -> 1000 - i) in
  let p99 = Calc.percentile ~pct:99 xs in
  Alcotest.(check int) "p99 value" 990 p99.value;
  Alcotest.(check int) "p99 samples" 1000 p99.samples;
  Alcotest.(check int) "p99 beyond" 10 p99.beyond;
  Alcotest.(check int) "input untouched" 1000 xs.(0);
  let p50 = Calc.percentile ~pct:50 xs in
  Alcotest.(check int) "p50 value" 500 p50.value;
  Alcotest.(check int) "p50 rank" 500 p50.rank

let test_ten_beyond () =
  Alcotest.(check bool) "p99 of 999 has 9 beyond" true
    (raises (fun () -> Calc.percentile ~pct:99 (Array.make 999 1)));
  Alcotest.(check int) "p99 of 1000 has 10 beyond" 10
    (Calc.percentile ~pct:99 (Array.make 1000 1)).beyond;
  Alcotest.(check bool) "p50 of 19 has 9 beyond" true
    (raises (fun () -> Calc.percentile ~pct:50 (Array.make 19 1)));
  Alcotest.(check int) "p50 of 20" 10 (Calc.percentile ~pct:50 (Array.make 20 1)).beyond

let test_host_speed () =
  Alcotest.(check (float 0.)) "slow phase scaled back" 0.5 (Calc.scale ~ref_ns:200 ~kernel_ns:400);
  Alcotest.(check (float 0.)) "reference speed unchanged" 1. (Calc.scale ~ref_ns:200 ~kernel_ns:200);
  Alcotest.(check bool) "zero kernel time refused" true
    (raises (fun () -> Calc.scale ~ref_ns:200 ~kernel_ns:0))

(* A top-level APP span of 100 that calls VFSCORE (60 inclusive), which
   calls RAMFS (35 inclusive), which calls back into VFSCORE (5) and
   into ALLOC (10); APP also calls ALLOC directly (8). *)
let test_self_times () =
  let self =
    Calc.self_times
      ~top:[ ("APP", 100) ]
      ~edges:
        [
          (("APP", "VFSCORE"), 60);
          (("VFSCORE", "RAMFS"), 35);
          (("RAMFS", "VFSCORE"), 5);
          (("RAMFS", "ALLOC"), 10);
          (("APP", "ALLOC"), 8);
        ]
  in
  Alcotest.(check (list (pair string int)))
    "self times"
    [ ("ALLOC", 18); ("APP", 32); ("RAMFS", 20); ("VFSCORE", 30) ]
    self;
  Alcotest.(check int) "self times add up to the top-level span" 100
    (List.fold_left (fun acc (_, v) -> acc + v) 0 self)

let test_self_times_two_tops () =
  (* two top-level spans entering different cubicles, one shared callee *)
  let self =
    Calc.self_times ~top:[ ("NGINX", 50); ("GW", 20) ]
      ~edges:[ (("NGINX", "LWIP"), 30); (("GW", "LWIP"), 5) ]
  in
  Alcotest.(check (list (pair string int)))
    "self times" [ ("GW", 15); ("LWIP", 35); ("NGINX", 20) ] self

let test_per_op () =
  Alcotest.(check (float 0.)) "per op" 2.5 (Calc.per_op ~ops:4 10);
  Alcotest.(check (float 0.)) "zero" 0. (Calc.per_op ~ops:7 0);
  Alcotest.(check bool) "no ops refused" true (raises (fun () -> Calc.per_op ~ops:0 1));
  Alcotest.(check (float 0.)) "odd median" 2. (Calc.median_float [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Calc.median_float [ 4.; 1.; 3.; 2. ])

let test_json () =
  Alcotest.(check string)
    "result line"
    ({|{"correct": true, "attempted": 1000, "failed": 0, "metrics": |}
    ^ {|{"latency_ms": {"value": 1.2034, "unit": "ms"}, "n": {"value": 3, "unit": "count"}}}|})
    (Calc.result_json ~correct:true ~attempted:1000 ~failed:0
       [ ("latency_ms", Calc.Float 1.2034, "ms"); ("n", Calc.Int 3, "count") ]);
  Alcotest.(check string) "all digits kept" "0.10000000000000001"
    (Calc.json_number (Calc.Float 0.1));
  Alcotest.(check string) "integral float" "3" (Calc.json_number (Calc.Float 3.));
  Alcotest.(check string) "exponent" "9.9999999999999995e-08"
    (Calc.json_number (Calc.Float 1e-7));
  Alcotest.(check bool) "nan refused" true (raises (fun () -> Calc.json_number (Calc.Float nan)));
  Alcotest.(check bool) "duplicate refused" true
    (raises (fun () ->
         Calc.result_json ~correct:true ~attempted:1 ~failed:0
           [ ("a", Calc.Int 1, "count"); ("a", Calc.Int 2, "count") ]));
  Alcotest.(check string) "escaped unit"
    ({|{"correct": false, "attempted": 2, "failed": 1, |}
    ^ {|"metrics": {"x": {"value": 1, "unit": "a\"b"}}}|})
    (Calc.result_json ~correct:false ~attempted:2 ~failed:1 [ ("x", Calc.Int 1, {|a"b|}) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "values and ranks" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
        ] );
      ("host speed", [ Alcotest.test_case "scaling" `Quick test_host_speed ]);
      ( "self time",
        [
          Alcotest.test_case "nested edges under a top-level caller" `Quick test_self_times;
          Alcotest.test_case "two top-level callers" `Quick test_self_times_two_tops;
        ] );
      ("normalisation", [ Alcotest.test_case "per op and medians" `Quick test_per_op ]);
      ("output", [ Alcotest.test_case "json" `Quick test_json ]);
    ]
