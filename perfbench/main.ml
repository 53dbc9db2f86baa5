(* The CubicleOS benchmark.

     main.exe --workload sqlite|http|tenants --seed N --seconds S --trace 0|1

   Boots the workload's system several times (set-up time is their
   median), then runs a closed loop of seeded ops for S seconds with
   tracing off. Simulated and allocation metrics are taken over a fixed
   block of the first rounds, so the same seed gives the same values;
   host metrics over the whole timed phase, each round scaled to a
   reference host speed by a kernel timed after it. With --trace 1 a fresh
   system then replays exactly the same rounds with a latency sink on a
   host clock, which splits host time per cubicle class. The last line
   of stdout is the JSON result; a broken invariant exits 1 without
   one. *)

open Cubicle
open Perfbench
open Harness

let t_start = now_ns ()
let nsetups = 5

let fatal fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "FATAL: %s\n%!" s;
      exit 1)
    fmt

let seconds_of_ns ns = float_of_int ns /. 1e9

type phase = {
  rounds : int;
  wall_ns : int;
  round_ns : int array;
  round_ops : int array;
  round_kernel : int array;
  kernel_ns : int;  (* host time spent in the speed kernel *)
  failed : int;
  op_ns : int array;
  op_cyc : int array;
  op_cls : int array;
  span_ns : int array array;
  total : snap;
  block_ops : int;
  block : snap;
  block_gc : gc;
  block_rss_kib : int;  (* VmHWM at the end of the block *)
  block_sim : (string * int array) list;
  total_sim : (string * int array) list;
  host_edges : ((string * string) * int) list;
}

let ops p = Array.length p.op_ns

let check_attribution what (s : snap) sim =
  let sum = Array.fold_left ( + ) 0 s.cats in
  if sum <> s.cycles then
    fatal "%s: attribution categories sum to %d cycles, the phase took %d" what sum s.cycles;
  if s.cats.(Telemetry.Attrib.cat_index Telemetry.Attrib.Ipc) <> 0 then
    fatal "%s: cycles billed to IPC, which no workload here uses" what;
  Array.iteri
    (fun i v ->
      let by_class = List.fold_left (fun acc (_, row) -> acc + row.(i)) 0 sim in
      if by_class <> v then
        fatal "%s: per-cubicle %s cycles sum to %d, category total %d" what
          (Telemetry.Attrib.cat_name (List.nth Telemetry.Attrib.categories i))
          by_class v)
    s.cats

let check_latency mon lat =
  let stats = Monitor.stats mon in
  if Telemetry.Latency.unmatched lat <> 0 || Telemetry.Latency.in_flight lat <> 0 then
    fatal "latency plane: %d unmatched returns, %d calls in flight"
      (Telemetry.Latency.unmatched lat)
      (Telemetry.Latency.in_flight lat);
  List.iter
    (fun ((caller, callee), h) ->
      let calls = Stats.calls_between stats ~caller ~callee in
      if Telemetry.Hist.count h <> calls then
        fatal "latency plane: edge %d->%d has %d samples, %d calls" caller callee
          (Telemetry.Hist.count h) calls)
    (Telemetry.Latency.edges lat);
  if Telemetry.Latency.observed lat <> Stats.total_calls stats then
    fatal "latency plane observed %d calls, the counters %d"
      (Telemetry.Latency.observed lat)
      (Stats.total_calls stats)

let timed_phase (type s o) (module W : WORKLOAD with type sys = s and type oracle = o) (sys : s)
    (oracle : o) ~seed ~limit ~traced =
  let mon = W.mon sys in
  let bus = Monitor.bus mon in
  let lat =
    if traced then begin
      let l = Telemetry.Latency.create () in
      Telemetry.Bus.set_now bus now_ns;
      Telemetry.Bus.set_latency bus (Some l);
      Some l
    end
    else None
  in
  Telemetry.Bus.reset_counters bus;
  let r = make_run mon ~nspans:(Array.length W.spans) in
  let acct = make_acct mon lat in
  r.on_epoch <- (fun () -> fold_epoch acct);
  let s0 = snap mon (W.ext sys) in
  let g0 = gc () in
  let block = ref None in
  let rounds = ref 0 in
  let round_ns = Ibuf.create () and round_ops = Ibuf.create () and round_kernel = Ibuf.create () in
  let kernel_ns = ref 0 in
  let t0 = now_ns () in
  let go () =
    match limit with
    | `Rounds n -> !rounds < n
    | `Seconds s -> !rounds < W.block_rounds || now_ns () - t0 < s * 1_000_000_000
  in
  while go () do
    let ops0 = Ibuf.length r.op_ns and tr = now_ns () in
    W.round r sys oracle ~seed !rounds;
    Ibuf.push round_ns (now_ns () - tr);
    Ibuf.push round_ops (Ibuf.length r.op_ns - ops0);
    let tk = now_ns () in
    Ibuf.push round_kernel (kernel ());
    kernel_ns := !kernel_ns + (now_ns () - tk);
    incr rounds;
    if !rounds = W.block_rounds then begin
      fold_epoch acct;
      block :=
        Some
          ( Ibuf.length r.op_ns,
            diff s0 (snap mon (W.ext sys)),
            gc (),
            sim_by_class acct,
            vm_hwm_kib () )
    end
  done;
  let wall_ns = now_ns () - t0 in
  fold_epoch acct;
  let total = diff s0 (snap mon (W.ext sys)) in
  Option.iter
    (fun l ->
      check_latency mon l;
      Telemetry.Bus.set_latency bus None)
    lat;
  let block_ops, block, g1, block_sim, block_rss_kib = Option.get !block in
  let p =
    {
      rounds = !rounds;
      wall_ns;
      round_ns = Ibuf.to_array round_ns;
      round_ops = Ibuf.to_array round_ops;
      round_kernel = Ibuf.to_array round_kernel;
      kernel_ns = !kernel_ns;
      failed = r.failed + total.rejected;
      op_ns = Ibuf.to_array r.op_ns;
      op_cyc = Ibuf.to_array r.op_cyc;
      op_cls = Ibuf.to_array r.op_cls;
      span_ns = Array.map Ibuf.to_array r.span_ns;
      total;
      block_ops;
      block;
      block_gc = gc_diff g0 g1;
      block_rss_kib;
      block_sim;
      total_sim = sim_by_class acct;
      host_edges = host_edges acct;
    }
  in
  if block_ops < 1000 then fatal "%s: the block holds %d ops, fewer than 1000" W.name block_ops;
  check_attribution (W.name ^ " block") p.block p.block_sim;
  check_attribution (W.name ^ " timed phase") p.total p.total_sim;
  p

(* Tracing must not move a single simulated cycle or counter. *)
let check_same_simulation (u : phase) (t : phase) =
  let same what a b = if a <> b then fatal "traced run differs from the untraced run in %s" what in
  same "rounds" u.rounds t.rounds;
  same "op count" (ops u) (ops t);
  same "per-op simulated cycles" u.op_cyc t.op_cyc;
  same "op classes" u.op_cls t.op_cls;
  same "failed ops" u.failed t.failed;
  same "timed-phase counters" u.total t.total;
  same "block counters" u.block t.block;
  same "per-cubicle cycles" u.total_sim t.total_sim;
  same "block per-cubicle cycles" u.block_sim t.block_sim

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; v : Calc.value; unit : string; note : string }

let m ?(note = "") name v unit = { name; v; unit; note }
let pctl_note (p : Calc.pctl) = Printf.sprintf "n=%d, rank %d, %d beyond" p.samples p.rank p.beyond
let us_of_ns ns = float_of_int ns /. 1e3

(* Host speed drifts while a run goes on, so every round is scaled by
   the kernel run right after it. Gives per-op host ns and the timed
   phase's host ns at the reference speed. *)
let scaled_host (p : phase) =
  let f = Array.map (fun k -> Calc.scale ~ref_ns:kernel_ref_ns ~kernel_ns:k) p.round_kernel in
  let op_ns = Array.make (ops p) 0 and total = ref 0. and i = ref 0 in
  Array.iteri
    (fun r n ->
      for _ = 1 to n do
        op_ns.(!i) <- Float.to_int (Float.round (float_of_int p.op_ns.(!i) *. f.(r)));
        incr i
      done;
      total := !total +. (float_of_int p.round_ns.(r) *. f.(r)))
    p.round_ops;
  (op_ns, !total)

type setup = { setup_s : float; boot_s : float; populate_s : float }

let end_to_end ~setups (u : phase) =
  let op_ns, host_ns = scaled_host u in
  let host50 = Calc.percentile ~pct:50 op_ns and host99 = Calc.percentile ~pct:99 op_ns in
  let block_cyc = Array.sub u.op_cyc 0 u.block_ops in
  let sim50 = Calc.percentile ~pct:50 block_cyc and sim99 = Calc.percentile ~pct:99 block_cyc in
  let raw_s = seconds_of_ns (Array.fold_left ( + ) 0 u.round_ns) in
  let kernel = Calc.median_float (Array.to_list (Array.map float_of_int u.round_kernel)) in
  [
    m "setup_s"
      (Calc.Float (Calc.median_float (List.map (fun s -> s.setup_s) setups)))
      "s"
      ~note:(Printf.sprintf "median of %d set-ups" nsetups);
    m "ops_per_s"
      (Calc.Float (float_of_int (ops u) /. (host_ns /. 1e9)))
      "ops/s"
      ~note:
        (Printf.sprintf "%d ops; unscaled %.1f ops/s, kernel p50 %.1f us" (ops u)
           (float_of_int (ops u) /. raw_s)
           (kernel /. 1e3));
    m "host_op_us_p50" (Calc.Float (us_of_ns host50.value)) "us" ~note:(pctl_note host50);
    m "host_op_us_p99" (Calc.Float (us_of_ns host99.value)) "us" ~note:(pctl_note host99);
    m "sim_cycles_per_op"
      (Calc.Float (Calc.per_op ~ops:u.block_ops u.block.cycles))
      "cycles"
      ~note:(Printf.sprintf "block of %d ops" u.block_ops);
    m "sim_op_cycles_p50" (Calc.Int sim50.value) "cycles" ~note:(pctl_note sim50);
    m "sim_op_cycles_p99" (Calc.Int sim99.value) "cycles" ~note:(pctl_note sim99);
    m "peak_rss_mb"
      (Calc.Float (float_of_int u.block_rss_kib /. 1024.))
      "MiB" ~note:"VmHWM after the block";
  ]

let cubicle_classes =
  [ "APP"; "VFSCORE"; "RAMFS"; "ALLOC"; "TIME"; "NGINX"; "LWIP"; "NETDEV"; "GW"; "TFS"; "TWEB" ]

(* The monitor bills cycles too (fault handling) but is entered through
   no call edge, so it has simulated cycles and no host self time. *)
let sim_classes = "MONITOR" :: cubicle_classes

(* Mean simulated cycles of the block's ops of one class; 0 when the
   workload has none. *)
let class_mean (u : phase) cls =
  let sum = ref 0 and n = ref 0 in
  for i = 0 to u.block_ops - 1 do
    if u.op_cls.(i) = cls then begin
      sum := !sum + u.op_cyc.(i);
      incr n
    end
  done;
  if !n = 0 then 0. else Calc.per_op ~ops:!n !sum

let span_index spans name =
  let rec go i =
    if i = Array.length spans then None else if spans.(i).sname = name then Some i else go (i + 1)
  in
  go 0

let per_layer (module W : WORKLOAD) ~setups ~(u : phase) ~(t : phase) =
  let b = u.block and bops = u.block_ops in
  let per x = Calc.Float (Calc.per_op ~ops:bops x) in
  let cat c = b.cats.(Telemetry.Attrib.cat_index c) in
  let median_of f = Calc.Float (Calc.median_float (List.map f setups)) in
  let tops = ops t in
  (* the traced replay's host times, at the reference speed *)
  let _, t_host = scaled_host t and _, u_host = scaled_host u in
  let f = t_host /. float_of_int (Array.fold_left ( + ) 0 t.round_ns) in
  let us_per_op ns = Calc.Float (f *. Calc.per_op ~ops:tops ns /. 1e3) in
  let span_sum name =
    match span_index W.spans name with Some i -> Array.fold_left ( + ) 0 t.span_ns.(i) | None -> 0
  in
  let span_per_op name = us_per_op (span_sum name) in
  let span_p50 name =
    match span_index W.spans name with
    | Some i when Array.length t.span_ns.(i) > 2 * Calc.min_beyond ->
        let p = Calc.percentile ~pct:50 t.span_ns.(i) in
        (Calc.Float (f *. us_of_ns p.value), pctl_note p)
    | _ -> (Calc.Float 0., "no samples in this workload")
  in
  let top_spans =
    Array.to_list W.spans
    |> List.concat_map (fun k ->
           match k.top with Some c -> [ (c, span_sum k.sname) ] | None -> [])
  in
  let self = Calc.self_times ~top:top_spans ~edges:t.host_edges in
  let self_of c = Option.value ~default:0 (List.assoc_opt c self) in
  let sim_of c =
    match List.assoc_opt c u.block_sim with Some row -> Array.fold_left ( + ) 0 row | None -> 0
  in
  let listed = List.fold_left (fun acc c -> acc + sim_of c) 0 sim_classes in
  if listed <> b.cycles then
    fatal "%s: the reported cubicles hold %d of the block's %d cycles" W.name listed b.cycles;
  let ext i = per b.ext.(i) in
  let q50, q50_note = span_p50 "minidb.query" in
  let sp50, sp50_note = span_p50 "core.spawn" in
  let td50, td50_note = span_p50 "core.teardown" in
  [
    (* hw *)
    m "hw.tlb_hit_rate"
      (Calc.Float
         (if b.tlb_hits + b.tlb_misses = 0 then 0.
          else float_of_int b.tlb_hits /. float_of_int (b.tlb_hits + b.tlb_misses)))
      "fraction";
    m "hw.tlb_flushes_per_op" (per b.tlb_flushes) "count";
    m "hw.wrpkru_per_op" (per b.wrpkru) "count";
    m "hw.shootdowns_per_op" (per b.shootdowns) "count";
    m "hw.mem_bytes_per_op" (per b.mem_bytes) "B";
    m "hw.keymux.fault_ins_per_op" (per b.km_fault_ins) "count";
    m "hw.keymux.evictions_per_op" (per b.km_evictions) "count";
    m "hw.keymux.retag_pages_per_op" (per b.km_retag_pages) "count";
    m "sim.keymux_cycles_per_op" (per (cat Telemetry.Attrib.Keymux)) "cycles";
    m "setup.boot_s" (median_of (fun s -> s.boot_s)) "s";
    m "setup.populate_s" (median_of (fun s -> s.populate_s)) "s";
    (* core *)
    m "core.crossings_per_op" (per b.calls) "count";
    m "core.shared_calls_per_op" (per b.shared) "count";
    m "core.faults_per_op" (per b.faults) "count";
    m "core.retags_per_op" (per b.retags) "count";
    m "core.window_ops_per_op" (per b.window_ops) "count";
    m "core.rejected" (Calc.Int u.total.rejected) "count";
    m "sim.tramp_cycles_per_op" (per (cat Telemetry.Attrib.Tramp)) "cycles";
    m "sim.mpk_cycles_per_op" (per (cat Telemetry.Attrib.Mpk)) "cycles";
    m "sim.window_cycles_per_op" (per (cat Telemetry.Attrib.Window)) "cycles";
    m "sim.memcpy_cycles_per_op" (per (cat Telemetry.Attrib.Memcpy)) "cycles";
    m "sim.fault_cycles_per_op" (per (cat Telemetry.Attrib.Fault)) "cycles";
    m "sim.other_cycles_per_op" (per (cat Telemetry.Attrib.Other)) "cycles";
    m "host.ns_per_crossing"
      (Calc.Float
         (if t.total.calls = 0 then 0. else t_host /. float_of_int t.total.calls))
      "ns";
    m "host.core.spawn_us_p50" sp50 "us" ~note:sp50_note;
    m "host.core.teardown_us_p50" td50 "us" ~note:td50_note;
  ]
  @ List.map (fun c -> m (Printf.sprintf "sim.%s.cycles_per_op" c) (per (sim_of c)) "cycles")
      sim_classes
  @ List.map
      (fun c ->
        m (Printf.sprintf "host.%s.self_us_per_op" c)
          (us_per_op (self_of c))
          "us")
      cubicle_classes
  @ [
      (* libos *)
      m "libos.fs_reads_per_op" (ext ext_fs_reads) "count";
      m "libos.fs_writes_per_op" (ext ext_fs_writes) "count";
      m "libos.fs_syncs_per_op" (ext ext_fs_syncs) "count";
      m "libos.fs_bytes_per_op" (ext ext_fs_bytes) "B";
      m "libos.netdev.frames_per_op" (ext ext_netdev_frames) "count";
      m "sim.light_cycles_per_query"
        (Calc.Float (if W.name = Sqlite_w.name then class_mean u Sqlite_w.cls_light else 0.))
        "cycles";
      m "sim.heavy_cycles_per_query"
        (Calc.Float (if W.name = Sqlite_w.name then class_mean u Sqlite_w.cls_heavy else 0.))
        "cycles";
      m "sim.copy_cycles_per_req"
        (Calc.Float (if W.name = Http_w.name then class_mean u Http_w.copy_ring else 0.))
        "cycles";
      m "sim.zerocopy_cycles_per_req"
        (Calc.Float (if W.name = Http_w.name then class_mean u Http_w.zerocopy_ring else 0.))
        "cycles";
      (* bench-side spans *)
      m "host.minidb.query_us_p50" q50 "us" ~note:q50_note;
      m "host.minidb.pass_us_per_op" (span_per_op "minidb.pass") "us";
      m "host.httpd.poll_us_per_op" (span_per_op "httpd.poll") "us";
      m "host.libos.netdev_host_us_per_op" (span_per_op "libos.netdev_host") "us";
      m "host.httpd.tenant_request_us_per_op" (span_per_op "httpd.tenant_request") "us";
      m "host.client_us_per_op" (span_per_op "client") "us";
      (* OCaml runtime *)
      m "gc.alloc_words_per_op" (Calc.Float (u.block_gc.alloc_words /. float_of_int bops)) "words";
      m "gc.major_words_per_op" (Calc.Float (u.block_gc.major_words /. float_of_int bops)) "words";
      m "gc.major_collections_per_kop"
        (Calc.Float (1000. *. float_of_int u.block_gc.major_collections /. float_of_int bops))
        "count";
      (* telemetry *)
      m "telemetry.trace_overhead_x"
        (Calc.Float (t_host /. u_host))
        "x" ~note:"traced over untraced host time of the same rounds";
    ]

(* The decomposition must close: per-class self time, the spans that
   enter no cubicle and the speed kernel cover the traced timed phase, up
   to the loop's own bookkeeping. *)
let check_closure (module W : WORKLOAD) (t : phase) =
  let sum_span i = Array.fold_left ( + ) 0 t.span_ns.(i) in
  let top = ref [] and others = ref 0 in
  Array.iteri
    (fun i k ->
      match k.top with
      | Some c -> top := (c, sum_span i) :: !top
      | None -> others := !others + sum_span i)
    W.spans;
  let self = Calc.self_times ~top:!top ~edges:t.host_edges in
  let covered = List.fold_left (fun acc (_, v) -> acc + v) !others self in
  let gap = abs (t.wall_ns - t.kernel_ns - covered) in
  if float_of_int gap > 0.02 *. float_of_int t.wall_ns then
    fatal "traced decomposition covers %d ns of a %d ns timed phase" covered t.wall_ns;
  (self, gap)

(* --- running a workload ---------------------------------------------------- *)

let kernel3 () =
  let a = [| kernel (); kernel (); kernel () |] in
  Array.sort compare a;
  a.(1)

(* Boot and populate one system; times at the reference speed, from
   kernel runs just before and after. [t0] is when set-up started. *)
let setup (type s o) (module W : WORKLOAD with type sys = s and type oracle = o) ~seed (oracle : o)
    ~t0 ~kernel_before =
  let tb = now_ns () in
  let sys = W.boot ~seed in
  let tp = now_ns () in
  W.populate sys oracle;
  let te = now_ns () in
  let f = Calc.scale ~ref_ns:kernel_ref_ns ~kernel_ns:((kernel_before + kernel3 ()) / 2) in
  ( sys,
    {
      setup_s = f *. seconds_of_ns (te - t0);
      boot_s = f *. seconds_of_ns (tp - tb);
      populate_s = f *. seconds_of_ns (te - tp);
    } )

let run (type s o) (module W : WORKLOAD with type sys = s and type oracle = o) ~seed ~seconds
    ~trace =
  let t_oracle = now_ns () in
  let oracle = W.oracle ~seed in
  Gc.full_major ();
  let kernel_before = kernel3 () in
  let excluded = now_ns () - t_oracle in
  (* set up several times; the first is timed from program start *)
  let cur = ref None in
  let setups =
    List.init nsetups (fun k ->
        let t0, kernel_before =
          if k = 0 then (t_start + excluded, kernel_before)
          else begin
            cur := None;
            Gc.full_major ();
            let kb = kernel3 () in
            (now_ns (), kb)
          end
        in
        let sys, s = setup (module W) ~seed oracle ~t0 ~kernel_before in
        cur := Some sys;
        s)
  in
  let u =
    timed_phase (module W) (Option.get !cur) oracle ~seed ~limit:(`Seconds seconds) ~traced:false
  in
  let traced =
    if not trace then None
    else begin
      cur := None;
      Gc.full_major ();
      let sys, _ = setup (module W) ~seed oracle ~t0:(now_ns ()) ~kernel_before:(kernel3 ()) in
      let t = timed_phase (module W) sys oracle ~seed ~limit:(`Rounds u.rounds) ~traced:true in
      check_same_simulation u t;
      Some (t, check_closure (module W) t)
    end
  in
  let attempted = ops u + (match traced with Some (t, _) -> ops t | None -> 0) in
  let failed = u.failed + match traced with Some (t, _) -> t.failed | None -> 0 in
  let metrics =
    match traced with
    | None -> end_to_end ~setups u
    | Some (t, _) -> per_layer (module W) ~setups ~u ~t
  in
  Printf.printf "perfbench %s: seed %d, %d s, trace %d, %d rounds (%d in the block)\n" W.name seed
    seconds (Bool.to_int trace) u.rounds W.block_rounds;
  List.iter
    (fun mt ->
      Printf.printf "  %-36s %18s %-7s %s\n" mt.name (Calc.json_number mt.v) mt.unit mt.note)
    metrics;
  Printf.printf "  %-36s %18s %-7s %d failed of %d attempted\n" "error_rate"
    (Calc.json_number (Calc.Float (Calc.per_op ~ops:attempted failed)))
    "fraction" failed attempted;
  Option.iter
    (fun ((t : phase), (self, gap)) ->
      Printf.printf "  traced phase %.3f s, untraced %.3f s; decomposition gap %d ns\n"
        (seconds_of_ns t.wall_ns) (seconds_of_ns u.wall_ns) gap;
      List.iter
        (fun (c, ns) ->
          let sim =
            match List.assoc_opt c t.block_sim with
            | Some r -> Array.fold_left ( + ) 0 r
            | None -> 0
          in
          Printf.printf "    %-10s self %12.3f ms   block sim %14d cycles\n" c
            (float_of_int ns /. 1e6) sim)
        self)
    traced;
  print_endline
    (Calc.result_json ~correct:(failed = 0) ~attempted ~failed
       (List.map (fun mt -> (mt.name, mt.v, mt.unit)) metrics))

let workloads : (string * (module WORKLOAD)) list =
  [
    (Sqlite_w.name, (module Sqlite_w));
    (Http_w.name, (module Http_w));
    (Tenants_w.name, (module Tenants_w));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " sqlite | http | tenants");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some (module W) -> run (module W) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
