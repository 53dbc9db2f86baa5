(* The measuring side of the benchmark: a host clock, per-op and span
   recorders, counter snapshots, and the per-cubicle-class accounting
   that turns the attribution table and the latency plane into
   per-class numbers. Workloads call [op] and [span]; everything else
   is read from the system's public counters. *)

open Cubicle

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable int array: per-op samples are appended on the hot path. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n
end

(* A bench span: host time spent in one kind of call. [top] names the
   cubicle class a span enters from the host (the application's main
   loop), so the span stands in for that class's incoming edges. *)
type span_kind = { sname : string; top : string option }

(* Counters the benchmark's own wrappers add, one slot each. *)
let ext_count = 5
let ext_fs_reads = 0
let ext_fs_writes = 1
let ext_fs_syncs = 2
let ext_fs_bytes = 3
let ext_netdev_frames = 4

type run = {
  r_cost : Hw.Cost.t;
  op_ns : Ibuf.t;
  op_cyc : Ibuf.t;
  op_cls : Ibuf.t;
  mutable failed : int;
  span_ns : Ibuf.t array;
  mutable on_epoch : unit -> unit;
}

let make_run mon ~nspans =
  {
    r_cost = Monitor.cost mon;
    op_ns = Ibuf.create ();
    op_cyc = Ibuf.create ();
    op_cls = Ibuf.create ();
    failed = 0;
    span_ns = Array.init nspans (fun _ -> Ibuf.create ());
    on_epoch = ignore;
  }

(* One closed-loop op: [f] runs to completion before the next op is
   sent. It returns whether the output was correct; an exception from
   the system also counts as a failed op. *)
let op r ~cls f =
  let c0 = Hw.Cost.cycles r.r_cost in
  let t0 = now_ns () in
  let ok = try f () with Types.Error _ | Hw.Fault.Violation _ -> false in
  let t1 = now_ns () in
  Ibuf.push r.op_ns (t1 - t0);
  Ibuf.push r.op_cyc (Hw.Cost.cycles r.r_cost - c0);
  Ibuf.push r.op_cls cls;
  if not ok then r.failed <- r.failed + 1

let span r i f =
  let t0 = now_ns () in
  let x = f () in
  Ibuf.push r.span_ns.(i) (now_ns () - t0);
  x

(* Fisher-Yates with the workload's seeded generator. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Lifecycle changes call this before and after tearing a cubicle down
   or spawning one, so per-class totals never mix two owners of a
   recycled cid. *)
let epoch r = r.on_epoch ()

module type WORKLOAD = sig
  val name : string

  val spans : span_kind array
  (** Every piece of an op's and a round's host time falls in exactly
      one of these spans. *)

  val block_rounds : int
  (** Rounds in the fixed block that simulated and allocation metrics
      are taken over; at least 1000 ops. *)

  type oracle
  type sys

  val oracle : seed:int -> oracle
  (** Host-side expected outputs, computed before set-up and not
      counted in it. *)

  val boot : seed:int -> sys
  val populate : sys -> oracle -> unit
  val mon : sys -> Monitor.t

  val ext : sys -> int array
  (** Current values of the [ext_*] counters. *)

  val round : run -> sys -> oracle -> seed:int -> int -> unit
  (** Execute round [i] of the seeded op stream. *)
end

(* --- counter snapshots ------------------------------------------------- *)

type snap = {
  cycles : int;
  cats : int array;  (* by Attrib.cat_index *)
  mem_bytes : int;
  wrpkru : int;
  shootdowns : int;
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  calls : int;
  shared : int;
  faults : int;
  retags : int;
  window_ops : int;
  rejected : int;
  km_fault_ins : int;
  km_evictions : int;
  km_retag_pages : int;
  ext : int array;
}

let snap mon ext =
  let cost = Monitor.cost mon and cpu = Monitor.cpu mon and stats = Monitor.stats mon in
  let attrib = Hw.Cost.attrib cost in
  let km f = match Monitor.keymux mon with Some k -> f (Hw.Keymux.stats k) | None -> 0 in
  {
    cycles = Hw.Cost.cycles cost;
    cats =
      Array.of_list
        (List.map (Telemetry.Attrib.category_total attrib) Telemetry.Attrib.categories);
    mem_bytes = cost.Hw.Cost.mem_bytes;
    wrpkru = Hw.Cpu.wrpkru_count cpu;
    shootdowns = Hw.Cpu.shootdown_count cpu;
    tlb_hits = Stats.tlb_hits stats;
    tlb_misses = Stats.tlb_misses stats;
    tlb_flushes = Stats.tlb_flushes stats;
    calls = Stats.total_calls stats;
    shared = Stats.shared_calls stats;
    faults = Stats.faults stats;
    retags = Stats.retags stats;
    window_ops = Stats.window_ops stats;
    rejected = Stats.rejected stats;
    km_fault_ins = km (fun s -> s.Hw.Keymux.fault_ins);
    km_evictions = km (fun s -> s.Hw.Keymux.evictions);
    km_retag_pages = km (fun s -> s.Hw.Keymux.retag_pages);
    ext;
  }

let diff a b =
  let d = Array.map2 ( - ) in
  {
    cycles = b.cycles - a.cycles;
    cats = d b.cats a.cats;
    mem_bytes = b.mem_bytes - a.mem_bytes;
    wrpkru = b.wrpkru - a.wrpkru;
    shootdowns = b.shootdowns - a.shootdowns;
    tlb_hits = b.tlb_hits - a.tlb_hits;
    tlb_misses = b.tlb_misses - a.tlb_misses;
    tlb_flushes = b.tlb_flushes - a.tlb_flushes;
    calls = b.calls - a.calls;
    shared = b.shared - a.shared;
    faults = b.faults - a.faults;
    retags = b.retags - a.retags;
    window_ops = b.window_ops - a.window_ops;
    rejected = b.rejected - a.rejected;
    km_fault_ins = b.km_fault_ins - a.km_fault_ins;
    km_evictions = b.km_evictions - a.km_evictions;
    km_retag_pages = b.km_retag_pages - a.km_retag_pages;
    ext = d b.ext a.ext;
  }

type gc = { alloc_words : float; major_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    alloc_words = b.alloc_words -. a.alloc_words;
    major_words = b.major_words -. a.major_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* --- per-class accounting ---------------------------------------------- *)

(* Tenant cubicles are numbered (TFS12, TWEB12); they are summed into
   one class per role. *)
let class_of_name name =
  let n = String.length name in
  let i = ref n in
  while !i > 0 && name.[!i - 1] >= '0' && name.[!i - 1] <= '9' do
    decr i
  done;
  if !i = 0 then name else String.sub name 0 !i

type acct = {
  a_mon : Monitor.t;
  a_lat : Telemetry.Latency.t option;
  cls_of : (int, string) Hashtbl.t;  (* cid -> class at the last epoch *)
  rows : (int, int array) Hashtbl.t;  (* cid -> attribution row at the last epoch *)
  esums : (int * int, int) Hashtbl.t;  (* cid edge -> Hist.sum at the last epoch *)
  sim : (string, int array) Hashtbl.t;  (* class -> cycles per category *)
  host_edges : (string * string, int) Hashtbl.t;  (* class edge -> host ns *)
}

let add_to tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let fold_epoch a =
  let attrib = Hw.Cost.attrib (Monitor.cost a.a_mon) in
  let cls cid =
    match Hashtbl.find_opt a.cls_of cid with
    | Some c -> c
    | None -> class_of_name (Monitor.cubicle_name a.a_mon cid)
  in
  List.iter
    (fun (cid, row) ->
      let prev =
        Option.value ~default:(Array.make Telemetry.Attrib.ncat 0) (Hashtbl.find_opt a.rows cid)
      in
      if row <> prev then begin
        let c = cls cid in
        let acc =
          match Hashtbl.find_opt a.sim c with
          | Some acc -> acc
          | None ->
              let acc = Array.make Telemetry.Attrib.ncat 0 in
              Hashtbl.replace a.sim c acc;
              acc
        in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) + v - prev.(i)) row;
        Hashtbl.replace a.rows cid row
      end)
    (Telemetry.Attrib.rows attrib);
  (match a.a_lat with
  | None -> ()
  | Some lat ->
      List.iter
        (fun ((caller, callee), h) ->
          let sum = Telemetry.Hist.sum h in
          let prev = Option.value ~default:0 (Hashtbl.find_opt a.esums (caller, callee)) in
          if sum <> prev then begin
            add_to a.host_edges (cls caller, cls callee) (sum - prev);
            Hashtbl.replace a.esums (caller, callee) sum
          end)
        (Telemetry.Latency.edges lat));
  Hashtbl.reset a.cls_of;
  List.iter
    (fun cid -> Hashtbl.replace a.cls_of cid (class_of_name (Monitor.cubicle_name a.a_mon cid)))
    (Monitor.live_cids a.a_mon)

(* Starts counting from the system's current state. *)
let make_acct mon lat =
  let a =
    {
      a_mon = mon;
      a_lat = lat;
      cls_of = Hashtbl.create 64;
      rows = Hashtbl.create 64;
      esums = Hashtbl.create 64;
      sim = Hashtbl.create 16;
      host_edges = Hashtbl.create 16;
    }
  in
  fold_epoch a;
  Hashtbl.reset a.sim;
  Hashtbl.reset a.host_edges;
  a

let sim_by_class a =
  Hashtbl.fold (fun c row acc -> (c, Array.copy row) :: acc) a.sim [] |> List.sort compare

let host_edges a = Hashtbl.fold (fun e v acc -> (e, v) :: acc) a.host_edges [] |> List.sort compare

(* --- host speed ------------------------------------------------------------ *)

(* A fixed, allocation-free kernel timed after every round and around
   every set-up. On a shared machine host speed drifts by up to 1.5x
   over seconds and minutes; the kernel slows with it, so host times are
   reported scaled to the speed at which the kernel takes {!kernel_ref_ns}
   (about its time on an idle 2-core Xeon VM). It runs once untimed
   first, so the timed run finds its data in cache whatever the round
   before it touched. *)
let kernel_ref_ns = 200_000
let kernel_src = Array.init 1024 (fun i -> ((i * 7919) + 13) land 0xFFFF)
let kernel_buf = Array.make 1024 0

let kernel_run () =
  Array.blit kernel_src 0 kernel_buf 0 1024;
  Array.sort Int.compare kernel_buf

let kernel () =
  kernel_run ();
  let t0 = now_ns () in
  kernel_run ();
  now_ns () - t0

(* --- process metrics ----------------------------------------------------- *)

let vm_hwm_kib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find
