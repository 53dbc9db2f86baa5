(* sqlite: the 31 speedtest1 queries of Figure 6 on the fully protected
   file-system stack (APP -> VFSCORE -> RAMFS). One op is one query. A
   round is five passes, one per database scale in a seeded order, each
   on a fresh database file that is digested and unlinked afterwards.
   Every round holds the same scales, so seeds change the order and the
   file names, not the amount of work. The scales are small so rounds
   are short and the per-round host speed scaling follows the host
   closely. *)

open Cubicle
open Harness

let name = "sqlite"
let scales = [| 32; 48; 64; 80; 96 |]
let block_rounds = 7 (* 7 x 5 passes x 31 queries = 1085 ops *)
let mem_bytes = 128 * 1024 * 1024
let sp_query = 0
let sp_pass = 1
let sp_client = 2

let spans =
  [|
    { sname = "minidb.query"; top = Some "APP" };
    { sname = "minidb.pass"; top = Some "APP" };
    { sname = "client"; top = None };
  |]

let cls_light = 0
let cls_heavy = 1

type sys = {
  boot : Libos.Boot.system;
  fio : Libos.Fileio.t;
  os : Minidb.Os_iface.t;  (* the engine's file system, counting *)
  counts : int array;
}

type oracle = (int * Digest.t) list (* scale -> database digest *)

(* The engine's OS interface, wrapped to count what it asks of the file
   system. *)
let counting counts (os : Minidb.Os_iface.t) =
  let bump i n = counts.(i) <- counts.(i) + n in
  {
    os with
    pread =
      (fun ~fd ~buf ~len ~off ->
        let n = os.pread ~fd ~buf ~len ~off in
        bump ext_fs_reads 1;
        bump ext_fs_bytes (max 0 n);
        n);
    pwrite =
      (fun ~fd ~buf ~len ~off ->
        let n = os.pwrite ~fd ~buf ~len ~off in
        bump ext_fs_writes 1;
        bump ext_fs_bytes (max 0 n);
        n);
    fsync =
      (fun fd ->
        bump ext_fs_syncs 1;
        os.fsync fd);
  }

let boot_stack protection =
  let app = Builder.component ~heap_pages:512 ~stack_pages:4 "APP" in
  let boot = Libos.Boot.fs_stack ~protection ~mem_bytes ~extra:[ (app, Types.Isolated) ] () in
  let fio = Libos.Fileio.make (Libos.Boot.app_ctx boot "APP") in
  let counts = Array.make ext_count 0 in
  { boot; fio; os = counting counts (Minidb.Os_iface.cubicleos fio); counts }

let mon s = s.boot.Libos.Boot.mon
let ext s = Array.copy s.counts

let path ~seed ~round ~pass = Printf.sprintf "/speed-%d-%d-%d.db" seed round pass

(* One pass: the whole query list on a fresh file, then the file's
   digest. [around_query] wraps each query; [around_rest] the opening,
   closing, digest and unlink. *)
let pass s ~path ~n ~around_query ~around_rest =
  let st = ref None and digest = ref "" in
  around_rest (fun () -> st := Some (Minidb.Speedtest.prepare s.os ~path ~n));
  let st = Option.get !st in
  List.iter
    (fun q -> around_query q (fun () -> Minidb.Speedtest.run st q))
    Minidb.Speedtest.queries;
  around_rest (fun () ->
      Minidb.Speedtest.finish st;
      digest := Digest.string (Libos.Fileio.read_file s.fio path);
      if s.os.unlink path <> 0 then Types.error "sqlite: unlink %s failed" path);
  !digest

(* Reference digests from an unprotected system running the same
   passes. *)
let oracle ~seed =
  let s = boot_stack Types.None_ in
  Array.to_list scales
  |> List.map (fun n ->
         let path = path ~seed ~round:(-1) ~pass:n in
         (n, pass s ~path ~n ~around_query:(fun _ f -> f ()) ~around_rest:(fun f -> f ())))

let boot ~seed:_ = boot_stack Types.Full
let populate _ (_ : oracle) = ()

let round r s oracle ~seed i =
  let order = Array.copy scales in
  shuffle (Random.State.make [| seed; i |]) order;
  Array.iteri
    (fun j n ->
      let failed_before = r.failed in
      let d =
        pass s ~path:(path ~seed ~round:i ~pass:j) ~n
          ~around_query:(fun (q : Minidb.Speedtest.query) f ->
            let cls = match q.group with Minidb.Speedtest.Light -> cls_light | Heavy -> cls_heavy in
            op r ~cls (fun () ->
                span r sp_query f;
                true))
          ~around_rest:(fun f -> span r sp_pass f)
      in
      (* a wrong database fails every query of the pass *)
      if span r sp_client (fun () -> d <> List.assoc n oracle) then
        r.failed <- failed_before + List.length Minidb.Speedtest.queries)
    order
