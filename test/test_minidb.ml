(* Tests for the database engine: records, pager (cache + journal),
   B+tree, tables/indexes, transactions, and the speedtest workload. *)

open Cubicle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let app_component () = Builder.component ~heap_pages:256 ~stack_pages:4 "APP"

let mk_os ?(protection = Types.Full) () =
  let sys =
    Libos.Boot.fs_stack ~protection ~mem_bytes:(128 * 1024 * 1024)
      ~extra:[ (app_component (), Types.Isolated) ]
      ()
  in
  Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP"))

let mk_linux_os () =
  let mon = Monitor.create ~protection:Types.None_ ~mem_bytes:(64 * 1024 * 1024) () in
  let cid = Monitor.create_cubicle mon ~name:"APP" ~kind:Types.Isolated ~heap_pages:256 ~stack_pages:4 in
  Minidb.Os_iface.linux (Monitor.ctx_for mon cid)

(* --- record ----------------------------------------------------------------- *)

let test_record_roundtrip () =
  let row = [ Minidb.Record.Null; Minidb.Record.int 42; Minidb.Record.Text "hello"; Minidb.Record.Int (-7L) ] in
  Alcotest.(check bool) "roundtrip" true (Minidb.Record.decode (Minidb.Record.encode row) = row)

let test_record_empty_and_errors () =
  check_bool "empty row" true (Minidb.Record.decode (Minidb.Record.encode []) = []);
  check_bool "garbage rejected" true
    (try ignore (Minidb.Record.decode "\x01\x09") ; false with Invalid_argument _ -> true)

let test_record_compare () =
  check_bool "null < int" true (Minidb.Record.compare_value Minidb.Record.Null (Minidb.Record.int 0) < 0);
  check_bool "int < text" true (Minidb.Record.compare_value (Minidb.Record.int 9) (Minidb.Record.Text "a") < 0);
  check_int "int order" (-1) (Minidb.Record.compare_value (Minidb.Record.int 1) (Minidb.Record.int 2))

let prop_record_roundtrip =
  let value_gen =
    QCheck.Gen.(
      oneof
        [
          return Minidb.Record.Null;
          map (fun i -> Minidb.Record.Int (Int64.of_int i)) int;
          map (fun s -> Minidb.Record.Text s) (string_size (int_bound 100));
        ])
  in
  QCheck.Test.make ~name:"record: encode/decode roundtrip"
    (QCheck.make QCheck.Gen.(list_size (int_bound 20) value_gen))
    (fun row -> Minidb.Record.decode (Minidb.Record.encode row) = row)

(* --- pager ------------------------------------------------------------------- *)

let test_pager_basic_rw () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/test.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "page data");
  Minidb.Pager.flush p;
  let s =
    Minidb.Pager.read_page p pg (fun addr -> Api.read_string os.ctx addr 9)
  in
  check_str "read back" "page data" s;
  Minidb.Pager.close p

let test_pager_persistence () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/persist.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "persisted");
  Minidb.Pager.close p;
  (* reopen: data must come back from the file system *)
  let p2 = Minidb.Pager.open_db os ~path:"/persist.db" in
  check_int "page count" 1 (Minidb.Pager.page_count p2);
  check_str "contents" "persisted"
    (Minidb.Pager.read_page p2 pg (fun addr -> Api.read_string os.ctx addr 9));
  Minidb.Pager.close p2

let test_pager_eviction () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/evict.db" in
  let pages = List.init 10 (fun _ -> Minidb.Pager.allocate_page p) in
  List.iteri
    (fun i pg -> Minidb.Pager.write_page p pg (fun addr -> Api.write_u32 os.ctx addr i))
    pages;
  (* more pages than frames: evictions must have spilled correctly *)
  check_bool "evictions happened" true ((Minidb.Pager.stats p).evictions > 0);
  List.iteri
    (fun i pg ->
      check_int
        (Printf.sprintf "page %d" i)
        i
        (Minidb.Pager.read_page p pg (fun addr -> Api.read_u32 os.ctx addr)))
    pages;
  Minidb.Pager.close p

(* Pin the exact victim sequence — not just "evictions happened". The
   Hashtbl tick index must pick the same victims the old full-table
   scan did: least recently used first, recency refreshed by hits, and
   a pinned LRU frame skipped in favour of the next-oldest. *)
let test_pager_lru_order () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/lru.db" in
  let pages = List.init 8 (fun _ -> Minidb.Pager.allocate_page p) in
  let pg i = List.nth pages i in
  let read i = ignore (Minidb.Pager.read_page p (pg i) (fun _ -> 0)) in
  let check_cache msg l =
    Alcotest.(check (list int)) msg
      (List.sort compare (List.map pg l))
      (Minidb.Pager.cached_pages p)
  in
  (* allocating 8 pages through 4 frames evicts the first four *)
  check_cache "after fill" [ 4; 5; 6; 7 ];
  read 4;
  (* LRU now 5 *)
  read 0;
  (* evicts 5; LRU now 6 *)
  check_cache "5 evicted" [ 0; 4; 6; 7 ];
  read 6;
  (* LRU now 7 *)
  read 1;
  (* evicts 7; LRU order now 4, 0, 6, 1 *)
  check_cache "7 evicted" [ 0; 1; 4; 6 ];
  (* 4 becomes most recent on the pinning read itself, leaving 0 as
     LRU; the nested miss must evict 0, never the pinned frame *)
  Minidb.Pager.read_page p (pg 4) (fun _ -> read 2);
  check_cache "0 evicted under pin" [ 1; 2; 4; 6 ];
  (* remaining order 6, 1, 4, 2: drain it one miss at a time *)
  read 3;
  check_cache "6 evicted" [ 1; 2; 3; 4 ];
  read 5;
  check_cache "1 evicted" [ 2; 3; 4; 5 ];
  read 7;
  check_cache "4 evicted" [ 2; 3; 5; 7 ];
  check_int "evictions" 10 (Minidb.Pager.stats p).evictions;
  Minidb.Pager.close p

let test_pager_commit () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/txn.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "committed");
  Minidb.Pager.commit p;
  check_bool "journal gone" false (os.exists "/txn.db-journal");
  check_str "visible" "committed"
    (Minidb.Pager.read_page p pg (fun addr -> Api.read_string os.ctx addr 9));
  Minidb.Pager.close p

let test_pager_rollback () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/rb.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "original!");
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun addr -> Api.write_string os.ctx addr "modified!");
  Minidb.Pager.rollback p;
  check_str "restored" "original!"
    (Minidb.Pager.read_page p pg (fun addr -> Api.read_string os.ctx addr 9));
  check_int "allocation rolled back" 1 (Minidb.Pager.page_count p);
  Minidb.Pager.close p

let test_pager_rollback_drops_new_pages () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/rb2.db" in
  ignore (Minidb.Pager.allocate_page p);
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  let extra = Minidb.Pager.allocate_page p in
  check_int "new page" 1 extra;
  Minidb.Pager.rollback p;
  check_int "shrunk back" 1 (Minidb.Pager.page_count p);
  Minidb.Pager.close p

let test_pager_rollback_spilled_pages () =
  (* pages evicted (spilled to the file) mid-transaction must still be
     restored by the journal *)
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:4 os ~path:"/spill.db" in
  let pages = List.init 8 (fun _ -> Minidb.Pager.allocate_page p) in
  List.iteri (fun i pg -> Minidb.Pager.write_page p pg (fun a -> Api.write_u32 os.ctx a i)) pages;
  Minidb.Pager.flush p;
  Minidb.Pager.begin_txn p;
  List.iter
    (fun pg -> Minidb.Pager.write_page p pg (fun a -> Api.write_u32 os.ctx a 9999))
    pages;
  Minidb.Pager.rollback p;
  List.iteri
    (fun i pg ->
      check_int "restored" i (Minidb.Pager.read_page p pg (fun a -> Api.read_u32 os.ctx a)))
    pages;
  Minidb.Pager.close p

(* Closing a pager gives its cache frames back to the heap, so an
   application opening one database after another keeps a flat
   footprint instead of growing its heap by a cache's worth of pages
   per database (which exhausted simulated memory on long runs). *)
let test_pager_close_frees_frames () =
  let os = mk_os () in
  let mon = os.Minidb.Os_iface.ctx.Monitor.mon in
  let cycle i =
    let path = Printf.sprintf "/cycle-%d.db" i in
    let p = Minidb.Pager.open_db os ~path in
    for _ = 1 to 80 do
      ignore (Minidb.Pager.allocate_page p)
    done;
    Minidb.Pager.close p;
    ignore (os.unlink path)
  in
  cycle 0;
  let free_after_first = Monitor.free_page_count mon in
  for i = 1 to 12 do
    cycle i
  done;
  check_int "machine pages after 13 databases" free_after_first (Monitor.free_page_count mon)

let test_pager_nested_txn_rejected () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db os ~path:"/nest.db" in
  Minidb.Pager.begin_txn p;
  check_bool "nested rejected" true
    (try Minidb.Pager.begin_txn p; false with Types.Error _ -> true);
  Minidb.Pager.commit p;
  Minidb.Pager.close p

(* --- WAL journal mode ----------------------------------------------------------- *)

let test_wal_commit_visible () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/w.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "wal data!");
  Minidb.Pager.commit p;
  check_bool "records in wal" true (Minidb.Pager.wal_pages p > 0);
  (* database file untouched until checkpoint *)
  check_str "read through wal" "wal data!"
    (Minidb.Pager.read_page p pg (fun a -> Api.read_string os.ctx a 9));
  Minidb.Pager.close p

let test_wal_rollback () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wr.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "original!");
  Minidb.Pager.commit p;
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "discarded");
  Minidb.Pager.rollback p;
  check_str "restored from wal" "original!"
    (Minidb.Pager.read_page p pg (fun a -> Api.read_string os.ctx a 9));
  Minidb.Pager.close p

let test_wal_checkpoint_and_recovery () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wc.db" in
  let pg = Minidb.Pager.allocate_page p in
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "checkpointed");
  Minidb.Pager.commit p;
  Minidb.Pager.checkpoint p;
  check_int "wal drained" 0 (Minidb.Pager.wal_pages p);
  check_str "in the db file" "checkpointed"
    (Minidb.Pager.read_page p pg (fun a -> Api.read_string os.ctx a 12));
  (* a crash before checkpoint: reopen recovers from the leftover wal *)
  Minidb.Pager.begin_txn p;
  Minidb.Pager.write_page p pg (fun a -> Api.write_string os.ctx a "crash-time!!");
  Minidb.Pager.commit p;
  (* simulate a crash: no close/checkpoint; reopen reads the wal file *)
  let p2 = Minidb.Pager.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wc.db" in
  check_bool "wal recovered" true (Minidb.Pager.wal_pages p2 > 0);
  check_str "recovered content" "crash-time!!"
    (Minidb.Pager.read_page p2 pg (fun a -> Api.read_string os.ctx a 12));
  Minidb.Pager.close p2

let test_wal_db_engine_end_to_end () =
  let os = mk_os () in
  let db = Minidb.Db.open_db ~journal_mode:Minidb.Pager.Wal os ~path:"/wdb.db" in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 200 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  (try
     Minidb.Db.with_txn db (fun () ->
         ignore (Minidb.Db.insert db t [ Minidb.Record.int 999 ]);
         failwith "abort")
   with Failure _ -> ());
  let t = Minidb.Db.find_table db "t" in
  check_int "wal txn semantics" 200 (Minidb.Db.row_count t);
  Minidb.Db.close db;
  (* close checkpointed everything into the main file *)
  let db2 = Minidb.Db.open_db os ~path:"/wdb.db" in
  check_int "persisted via checkpoint" 200 (Minidb.Db.row_count (Minidb.Db.find_table db2 "t"))

(* --- btree -------------------------------------------------------------------- *)

let mk_tree ?(cache = 64) () =
  let os = mk_os () in
  let p = Minidb.Pager.open_db ~cache_pages:cache os ~path:"/tree.db" in
  (Minidb.Btree.create p, p)

let test_btree_insert_find () =
  let t, _ = mk_tree () in
  Minidb.Btree.insert t ~key:5L ~payload:"five";
  Minidb.Btree.insert t ~key:1L ~payload:"one";
  Minidb.Btree.insert t ~key:9L ~payload:"nine";
  check_bool "find 5" true (Minidb.Btree.find t 5L = Some "five");
  check_bool "find 1" true (Minidb.Btree.find t 1L = Some "one");
  check_bool "missing" true (Minidb.Btree.find t 7L = None)

let test_btree_replace () =
  let t, _ = mk_tree () in
  Minidb.Btree.insert t ~key:5L ~payload:"old";
  Minidb.Btree.insert t ~key:5L ~payload:"new";
  check_bool "replaced" true (Minidb.Btree.find t 5L = Some "new");
  check_int "one entry" 1 (Minidb.Btree.count_range t ~lo:Int64.min_int ~hi:Int64.max_int)

let test_btree_many_keys_split () =
  let t, _ = mk_tree () in
  let n = 3000 in
  for i = 1 to n do
    Minidb.Btree.insert t ~key:(Int64.of_int (i * 7 mod n)) ~payload:(Printf.sprintf "v%d" (i * 7 mod n))
  done;
  check_bool "tree grew" true (Minidb.Btree.depth t > 1);
  let ok = ref true in
  for i = 0 to n - 1 do
    if Minidb.Btree.find t (Int64.of_int i) <> Some (Printf.sprintf "v%d" i) then ok := false
  done;
  check_bool "all present" true !ok

let test_btree_range_order () =
  let t, _ = mk_tree () in
  for i = 100 downto 1 do
    Minidb.Btree.insert t ~key:(Int64.of_int i) ~payload:(string_of_int i)
  done;
  let seen = ref [] in
  Minidb.Btree.iter_range t ~lo:20L ~hi:40L (fun k _ -> seen := Int64.to_int k :: !seen);
  Alcotest.(check (list int)) "ordered inclusive range" (List.init 21 (fun i -> 20 + i))
    (List.rev !seen)

let test_btree_delete () =
  let t, _ = mk_tree () in
  for i = 1 to 500 do
    Minidb.Btree.insert t ~key:(Int64.of_int i) ~payload:"x"
  done;
  check_bool "delete present" true (Minidb.Btree.delete t 250L);
  check_bool "delete absent" false (Minidb.Btree.delete t 250L);
  check_bool "gone" true (Minidb.Btree.find t 250L = None);
  check_int "count drops" 499 (Minidb.Btree.count_range t ~lo:Int64.min_int ~hi:Int64.max_int)

let test_btree_min_max () =
  let t, _ = mk_tree () in
  check_bool "empty min" true (Minidb.Btree.min_key t = None);
  List.iter (fun k -> Minidb.Btree.insert t ~key:k ~payload:"") [ 42L; -3L; 17L ];
  check_bool "min" true (Minidb.Btree.min_key t = Some (-3L));
  check_bool "max" true (Minidb.Btree.max_key t = Some 42L)

let test_btree_payload_cap () =
  let t, _ = mk_tree () in
  check_bool "oversized rejected" true
    (try
       Minidb.Btree.insert t ~key:1L ~payload:(String.make 2000 'x');
       false
     with Types.Error _ -> true)

let prop_btree_matches_map =
  QCheck.Test.make ~count:20 ~name:"btree: agrees with a reference map"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (pair (int_bound 500) (string_of_size (QCheck.Gen.int_bound 30))))
    (fun ops ->
      let t, _ = mk_tree () in
      let reference = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:v;
          Hashtbl.replace reference k v)
        ops;
      Hashtbl.fold
        (fun k v acc -> acc && Minidb.Btree.find t (Int64.of_int k) = Some v)
        reference true
      && Minidb.Btree.count_range t ~lo:Int64.min_int ~hi:Int64.max_int
         = Hashtbl.length reference)

let prop_btree_iter_sorted =
  QCheck.Test.make ~count:20 ~name:"btree: iteration is sorted, no duplicates"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 400) (int_bound 1000))
    (fun keys ->
      let t, _ = mk_tree () in
      List.iter (fun k -> Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:"") keys;
      let seen = ref [] in
      Minidb.Btree.iter_all t (fun k _ -> seen := k :: !seen);
      let l = List.rev !seen in
      l = List.sort_uniq Int64.compare (List.map Int64.of_int keys))

(* The on-disk node format, checked against the reference codec in
   [Oracle]: a tree built through the public API must leave pages that
   the reference decoder reads as the entries the tree returns, and that
   the reference encoder reproduces byte for byte. A bulk phase of
   1200 keys with 1013..1024-byte payloads (at most three per leaf, so
   more than 341 leaves) guarantees leaf and interior splits; random
   inserts, replacements and deletes with 0..1024-byte payloads follow. *)
type bt_op = Put of int * int | Del of int

let payload_of k len = String.init len (fun i -> Char.chr ((k + (i * 13)) land 0xFF))

let btree_script_gen =
  let open QCheck.Gen in
  let bulk =
    map2
      (List.map2 (fun k len -> Put (k, len)))
      (shuffle_l (List.init 1200 Fun.id))
      (list_repeat 1200 (int_range 1013 1024))
  in
  let op =
    frequency
      [
        (3, map2 (fun k len -> Put (k, len)) (int_bound 1499) (int_bound Minidb.Btree.max_payload));
        (1, map (fun k -> Del k) (int_bound 1499));
      ]
  in
  map2 ( @ ) bulk (list_size (int_range 50 300) op)

let raw_page p pg =
  Minidb.Pager.read_page p pg (fun addr ->
      Api.read_string (Minidb.Pager.ctx p) addr Minidb.Pager.page_size)

let prop_btree_on_disk_format =
  QCheck.Test.make ~count:4 ~name:"btree: pages match the reference codec"
    (QCheck.make btree_script_gen)
    (fun script ->
      let t, p = mk_tree () in
      let reference = Hashtbl.create 1024 in
      List.iter
        (function
          | Put (k, len) ->
              let payload = payload_of k len in
              Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload;
              Hashtbl.replace reference (Int64.of_int k) payload
          | Del k ->
              ignore (Minidb.Btree.delete t (Int64.of_int k));
              Hashtbl.remove reference (Int64.of_int k))
        script;
      let pages = Array.init (Minidb.Pager.page_count p) (raw_page p) in
      let reencodes raw =
        let s = Oracle.encode_node (Oracle.decode_node raw) in
        s ^ String.make (Minidb.Pager.page_size - String.length s) '\000' = raw
      in
      let rec entries pg =
        match Oracle.decode_node pages.(pg) with
        | Oracle.Leaf { entries; _ } -> entries
        | Oracle.Interior { first; seps } ->
            entries first @ List.concat_map (fun (_, child) -> entries child) seps
      in
      (* the leaf chain, followed through the reference [next] links *)
      let rec leftmost pg =
        match Oracle.decode_node pages.(pg) with
        | Oracle.Leaf _ -> pg
        | Oracle.Interior { first; _ } -> leftmost first
      in
      let rec chain pg =
        match Oracle.decode_node pages.(pg) with
        | Oracle.Leaf { entries; next } -> entries @ if next = 0 then [] else chain (next - 1)
        | Oracle.Interior _ -> failwith "leaf chain reaches an interior node"
      in
      let returned = ref [] in
      Minidb.Btree.iter_all t (fun k v -> returned := (k, v) :: !returned);
      let returned = List.rev !returned in
      let root = Minidb.Btree.root t in
      Minidb.Btree.depth t >= 3
      && Array.for_all reencodes pages
      && entries root = returned
      && chain (leftmost root) = returned
      && returned
         = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reference []))

(* A damaged node header fails closed with a named error instead of an
   out-of-bounds host access. *)
let test_btree_corrupt_node () =
  List.iter
    (fun n ->
      let t, p = mk_tree () in
      for i = 1 to n do
        Minidb.Btree.insert t ~key:(Int64.of_int i) ~payload:(String.make 40 'x')
      done;
      let root = Minidb.Btree.root t in
      Minidb.Pager.read_page p root (fun addr ->
          Api.write_u16 (Minidb.Pager.ctx p) (addr + 1) 0xFFFF);
      Alcotest.check_raises
        (Printf.sprintf "corrupt root after %d inserts" n)
        (Types.Error (Printf.sprintf "btree: corrupt node on page %d" root))
        (fun () -> ignore (Minidb.Btree.find t 1L)))
    [ 10 (* root is a leaf *); 500 (* root is an interior *) ]

(* Page-sized host buffers go straight to the major heap, so a node
   read or write that allocates one shows up as direct major words
   (allocated in the major heap, not promoted). The staged codec
   allocates none: finds and same-size payload replacements must stay
   far below one page (512 words) per op. *)
let test_btree_no_page_garbage () =
  let t, _ = mk_tree () in
  let nkeys = 200 in
  let payloads =
    Array.init 2 (fun v -> Array.init nkeys (fun k -> payload_of (k + v) 100))
  in
  for k = 0 to nkeys - 1 do
    Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:payloads.(0).(k)
  done;
  let round v =
    for k = 0 to nkeys - 1 do
      ignore (Minidb.Btree.find t (Int64.of_int k));
      Minidb.Btree.insert t ~key:(Int64.of_int k) ~payload:payloads.(v).(k)
    done
  in
  round 1;
  let _, promoted0, major0 = Gc.counters () in
  for i = 0 to 4 do
    round (i land 1)
  done;
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  let per_op = direct /. float_of_int (2 * 5 * nkeys) in
  check_bool (Printf.sprintf "%.1f direct major words per op < 64" per_op) true (per_op < 64.)

(* --- db ------------------------------------------------------------------------- *)

let mk_db ?protection () =
  let os = mk_os ?protection () in
  Minidb.Db.open_db os ~path:"/app.db"

let test_db_insert_get () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  let r1 = Minidb.Db.insert db t [ Minidb.Record.int 10; Minidb.Record.Text "a" ] in
  let r2 = Minidb.Db.insert db t [ Minidb.Record.int 20; Minidb.Record.Text "b" ] in
  check_bool "distinct rowids" true (r1 <> r2);
  check_bool "get r1" true (Minidb.Db.get t r1 = Some [ Minidb.Record.int 10; Minidb.Record.Text "a" ]);
  check_int "count" 2 (Minidb.Db.row_count t)

let test_db_update_delete () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  let r = Minidb.Db.insert db t [ Minidb.Record.int 1 ] in
  check_bool "update" true (Minidb.Db.update db t r [ Minidb.Record.int 2 ]);
  check_bool "updated" true (Minidb.Db.get t r = Some [ Minidb.Record.int 2 ]);
  check_bool "delete" true (Minidb.Db.delete db t r);
  check_bool "gone" true (Minidb.Db.get t r = None);
  check_bool "re-delete" false (Minidb.Db.delete db t r)

let test_db_index_range () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  for i = 1 to 200 do
    ignore (Minidb.Db.insert db t [ Minidb.Record.int (i mod 50); Minidb.Record.int i ])
  done;
  let idx = Minidb.Db.create_index db t ~col:0 ~name:"i0" in
  let hits = ref 0 in
  Minidb.Db.index_range idx t ~lo:10 ~hi:12 (fun _ row ->
      let v = Minidb.Record.to_int (List.hd row) in
      check_bool "in range" true (v >= 10 && v <= 12);
      incr hits);
  check_int "4 rows per value" 12 !hits

let test_db_index_maintained () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  let r = Minidb.Db.insert db t [ Minidb.Record.int 5 ] in
  let idx = Minidb.Db.create_index db t ~col:0 ~name:"i0" in
  ignore (Minidb.Db.update db t r [ Minidb.Record.int 7 ]);
  let at v =
    let n = ref 0 in
    Minidb.Db.index_range idx t ~lo:v ~hi:v (fun _ _ -> incr n);
    !n
  in
  check_int "old key gone" 0 (at 5);
  check_int "new key present" 1 (at 7);
  ignore (Minidb.Db.delete db t r);
  check_int "deleted from index" 0 (at 7);
  check_bool "integrity" true (Minidb.Db.integrity_check db)

let test_db_text_index () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "apple" ]);
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "banana" ]);
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "apple" ]);
  let idx = Minidb.Db.create_index db t ~col:0 ~name:"txt" in
  let n = ref 0 in
  Minidb.Db.index_eq_text idx t "apple" (fun _ _ -> incr n);
  check_int "two apples" 2 !n;
  let m = ref 0 in
  Minidb.Db.index_eq_text idx t "cherry" (fun _ _ -> incr m);
  check_int "no cherries" 0 !m

let test_db_txn_commit_rollback () =
  let db = mk_db () in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 50 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  check_int "committed" 50 (Minidb.Db.row_count t);
  (* a failing transaction rolls everything back *)
  (try
     Minidb.Db.with_txn db (fun () ->
         for i = 51 to 90 do
           ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
         done;
         failwith "abort")
   with Failure _ -> ());
  let t = Minidb.Db.find_table db "t" in
  check_int "rolled back" 50 (Minidb.Db.row_count t)

let test_db_persistence () =
  let os = mk_os () in
  let db = Minidb.Db.open_db os ~path:"/persist2.db" in
  let t = Minidb.Db.create_table db "t" in
  ignore (Minidb.Db.insert db t [ Minidb.Record.Text "still here" ]);
  let _ = Minidb.Db.create_index db t ~col:0 ~name:"i" in
  Minidb.Db.close db;
  let db2 = Minidb.Db.open_db os ~path:"/persist2.db" in
  let t2 = Minidb.Db.find_table db2 "t" in
  check_int "row survived" 1 (Minidb.Db.row_count t2);
  check_bool "row content" true (Minidb.Db.get t2 1L = Some [ Minidb.Record.Text "still here" ]);
  let n = ref 0 in
  Minidb.Db.index_eq_text (Minidb.Db.find_index db2 "i") t2 "still here" (fun _ _ -> incr n);
  check_int "index survived" 1 !n

(* --- speedtest --------------------------------------------------------------------- *)

let test_speedtest_all_queries_run () =
  let os = mk_os () in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n:40 ~measure:(fun f -> f (); 0)
  in
  check_int "31 queries" 31 (List.length results)

let test_speedtest_on_linux_baseline () =
  let os = mk_linux_os () in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n:40 ~measure:(fun f -> f (); 0)
  in
  check_int "31 queries" 31 (List.length results)

let test_speedtest_heavy_uses_os_more () =
  (* The structural property behind Figure 6's groups: heavy queries
     perform more cross-cubicle calls per query than light ones. *)
  let app = app_component () in
  let sys =
    Libos.Boot.fs_stack ~protection:Types.Full ~mem_bytes:(128 * 1024 * 1024)
      ~extra:[ (app, Types.Isolated) ] ()
  in
  let os = Minidb.Os_iface.cubicleos (Libos.Fileio.make (Libos.Boot.app_ctx sys "APP")) in
  let stats = Monitor.stats sys.mon in
  let results =
    Minidb.Speedtest.run_all os ~path:"/speed.db" ~n:40 ~measure:(fun f ->
        let before = Stats.total_calls stats in
        f ();
        Stats.total_calls stats - before)
  in
  let avg group =
    let xs =
      List.filter_map
        (fun ((q : Minidb.Speedtest.query), c) -> if q.group = group then Some c else None)
        results
    in
    List.fold_left ( + ) 0 xs / List.length xs
  in
  check_bool "heavy group calls >= 2x light group" true
    (avg Minidb.Speedtest.Heavy >= 2 * avg Minidb.Speedtest.Light)

(* random transaction scripts must leave identical table contents under
   both journal modes *)
type txn_op = T_insert of int | T_update of int * int | T_delete of int | T_abort

let txn_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> T_insert v) (int_bound 1000);
        map2 (fun r v -> T_update (r, v)) (int_range 1 50) (int_bound 1000);
        map (fun r -> T_delete r) (int_range 1 50);
        return T_abort;
      ])

let run_txn_script mode script =
  let os = mk_linux_os () in
  let db = Minidb.Db.open_db ~journal_mode:mode os ~path:"/eq.db" in
  let t = Minidb.Db.create_table db "t" in
  Minidb.Db.with_txn db (fun () ->
      for i = 1 to 50 do
        ignore (Minidb.Db.insert db t [ Minidb.Record.int i ])
      done);
  List.iter
    (fun txn ->
      try
        Minidb.Db.with_txn db (fun () ->
            List.iter
              (fun op ->
                match op with
                | T_insert v -> ignore (Minidb.Db.insert db t [ Minidb.Record.int v ])
                | T_update (r, v) ->
                    ignore (Minidb.Db.update db t (Int64.of_int r) [ Minidb.Record.int v ])
                | T_delete r -> ignore (Minidb.Db.delete db t (Int64.of_int r))
                | T_abort -> failwith "abort")
              txn)
      with Failure _ -> ())
    script;
  let contents = ref [] in
  let t = Minidb.Db.find_table db "t" in
  Minidb.Db.scan t (fun rowid row -> contents := (rowid, row) :: !contents);
  Minidb.Db.close db;
  List.rev !contents

let prop_journal_modes_equivalent =
  QCheck.Test.make ~count:25
    ~name:"pager: rollback and WAL journal modes produce identical contents"
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 8) (list_size (int_bound 10) txn_op_gen)))
    (fun script ->
      run_txn_script Minidb.Pager.Rollback script = run_txn_script Minidb.Pager.Wal script)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_record_roundtrip;
      prop_btree_matches_map;
      prop_btree_iter_sorted;
      prop_btree_on_disk_format;
      prop_journal_modes_equivalent;
    ]

let () =
  Alcotest.run "minidb"
    [
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "empty/errors" `Quick test_record_empty_and_errors;
          Alcotest.test_case "compare" `Quick test_record_compare;
        ] );
      ( "pager",
        [
          Alcotest.test_case "basic rw" `Quick test_pager_basic_rw;
          Alcotest.test_case "persistence" `Quick test_pager_persistence;
          Alcotest.test_case "eviction" `Quick test_pager_eviction;
          Alcotest.test_case "lru order" `Quick test_pager_lru_order;
          Alcotest.test_case "commit" `Quick test_pager_commit;
          Alcotest.test_case "rollback" `Quick test_pager_rollback;
          Alcotest.test_case "rollback new pages" `Quick test_pager_rollback_drops_new_pages;
          Alcotest.test_case "rollback spilled" `Quick test_pager_rollback_spilled_pages;
          Alcotest.test_case "nested txn" `Quick test_pager_nested_txn_rejected;
          Alcotest.test_case "close frees frames" `Quick test_pager_close_frees_frames;
        ] );
      ( "wal",
        [
          Alcotest.test_case "commit visible" `Quick test_wal_commit_visible;
          Alcotest.test_case "rollback" `Quick test_wal_rollback;
          Alcotest.test_case "checkpoint+recovery" `Quick test_wal_checkpoint_and_recovery;
          Alcotest.test_case "engine end-to-end" `Quick test_wal_db_engine_end_to_end;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "replace" `Quick test_btree_replace;
          Alcotest.test_case "splits" `Quick test_btree_many_keys_split;
          Alcotest.test_case "range order" `Quick test_btree_range_order;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "min/max" `Quick test_btree_min_max;
          Alcotest.test_case "payload cap" `Quick test_btree_payload_cap;
          Alcotest.test_case "corrupt node" `Quick test_btree_corrupt_node;
          Alcotest.test_case "no page garbage" `Quick test_btree_no_page_garbage;
        ] );
      ( "db",
        [
          Alcotest.test_case "insert/get" `Quick test_db_insert_get;
          Alcotest.test_case "update/delete" `Quick test_db_update_delete;
          Alcotest.test_case "index range" `Quick test_db_index_range;
          Alcotest.test_case "index maintained" `Quick test_db_index_maintained;
          Alcotest.test_case "text index" `Quick test_db_text_index;
          Alcotest.test_case "txn" `Quick test_db_txn_commit_rollback;
          Alcotest.test_case "persistence" `Quick test_db_persistence;
        ] );
      ( "speedtest",
        [
          Alcotest.test_case "all queries (cubicleos)" `Slow test_speedtest_all_queries_run;
          Alcotest.test_case "all queries (linux)" `Quick test_speedtest_on_linux_baseline;
          Alcotest.test_case "heavy vs light os usage" `Slow test_speedtest_heavy_uses_os_more;
        ] );
      ("properties", qsuite);
    ]
