(* Unit and property tests for the simulated hardware (lib/hw). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Addr ---------------------------------------------------------------- *)

let test_addr_basics () =
  check_int "page size" 4096 Hw.Addr.page_size;
  check_int "page of 0" 0 (Hw.Addr.page_of 0);
  check_int "page of 4095" 0 (Hw.Addr.page_of 4095);
  check_int "page of 4096" 1 (Hw.Addr.page_of 4096);
  check_int "base of page 3" 12288 (Hw.Addr.base_of_page 3);
  check_int "offset" 123 (Hw.Addr.offset (8192 + 123));
  check_int "align_up exact" 4096 (Hw.Addr.align_up 4096);
  check_int "align_up up" 8192 (Hw.Addr.align_up 4097);
  check_int "align_down" 4096 (Hw.Addr.align_down 8191);
  check_int "pages_for 0" 0 (Hw.Addr.pages_for 0);
  check_int "pages_for 1" 1 (Hw.Addr.pages_for 1);
  check_int "pages_for 4096" 1 (Hw.Addr.pages_for 4096);
  check_int "pages_for 4097" 2 (Hw.Addr.pages_for 4097);
  check_bool "aligned" true (Hw.Addr.is_aligned 8192);
  check_bool "unaligned" false (Hw.Addr.is_aligned 8193)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr: page_of/base_of_page/offset reconstruct"
    QCheck.(int_bound 100_000_000)
    (fun a -> Hw.Addr.base_of_page (Hw.Addr.page_of a) + Hw.Addr.offset a = a)

(* --- Pkru ---------------------------------------------------------------- *)

let test_pkru_basics () =
  let r = Hw.Pkru.all_deny in
  check_bool "deny read" false (Hw.Pkru.can_read r 3);
  check_bool "deny write" false (Hw.Pkru.can_write r 3);
  let r = Hw.Pkru.allow r 3 in
  check_bool "allow read" true (Hw.Pkru.can_read r 3);
  check_bool "allow write" true (Hw.Pkru.can_write r 3);
  check_bool "others still denied" false (Hw.Pkru.can_read r 4);
  let r = Hw.Pkru.allow_read_only r 3 in
  check_bool "ro read" true (Hw.Pkru.can_read r 3);
  check_bool "ro write" false (Hw.Pkru.can_write r 3)

let test_pkru_all_allow () =
  for k = 0 to Hw.Pkru.nkeys - 1 do
    check_bool "read" true (Hw.Pkru.can_read Hw.Pkru.all_allow k);
    check_bool "write" true (Hw.Pkru.can_write Hw.Pkru.all_allow k)
  done

let test_pkru_of_keys () =
  let r = Hw.Pkru.of_keys [ 1; 15 ] in
  check_bool "key 1 rw" true (Hw.Pkru.can_write r 1);
  check_bool "key 15 rw" true (Hw.Pkru.can_write r 15);
  check_bool "key 0 denied" false (Hw.Pkru.can_read r 0);
  check_bool "key 7 denied" false (Hw.Pkru.can_read r 7)

let test_pkru_bad_key () =
  Alcotest.check_raises "key 16 rejected" (Invalid_argument "Pkru: key 16 out of range")
    (fun () -> ignore (Hw.Pkru.can_read Hw.Pkru.all_allow 16))

let prop_pkru_deny_allow_inverse =
  QCheck.Test.make ~name:"pkru: allow after deny restores rw"
    QCheck.(int_bound 15)
    (fun k ->
      let r = Hw.Pkru.allow (Hw.Pkru.deny Hw.Pkru.all_allow k) k in
      Hw.Pkru.can_read r k && Hw.Pkru.can_write r k)

(* --- Page_table ---------------------------------------------------------- *)

let test_page_table () =
  let pt = Hw.Page_table.create 8 in
  check_bool "absent" false (Hw.Page_table.present pt 5);
  Hw.Page_table.set_present pt 5 true;
  check_bool "present" true (Hw.Page_table.present pt 5);
  Hw.Page_table.set_perm pt 5 Hw.Page_table.perm_rw;
  let p = Hw.Page_table.perm pt 5 in
  check_bool "r" true p.r;
  check_bool "w" true p.w;
  check_bool "x" false p.x;
  Hw.Page_table.set_key pt 5 9;
  check_int "key" 9 (Hw.Page_table.key pt 5);
  (* perm and key are independent *)
  Hw.Page_table.set_perm pt 5 Hw.Page_table.perm_x;
  check_int "key preserved" 9 (Hw.Page_table.key pt 5);
  check_bool "now exec-only" true (Hw.Page_table.perm pt 5).x;
  check_bool "no read" false (Hw.Page_table.perm pt 5).r

let test_page_table_allows () =
  let open Hw.Page_table in
  check_bool "rw allows read" true (allows perm_rw Hw.Fault.Read);
  check_bool "rw allows write" true (allows perm_rw Hw.Fault.Write);
  check_bool "rw denies exec" false (allows perm_rw Hw.Fault.Exec);
  check_bool "x allows exec" true (allows perm_x Hw.Fault.Exec);
  check_bool "x denies read" false (allows perm_x Hw.Fault.Read);
  check_bool "r denies write" false (allows perm_r Hw.Fault.Write)

(* --- Phys_mem ------------------------------------------------------------ *)

let test_phys_mem_scalars () =
  let m = Hw.Phys_mem.create 8192 in
  Hw.Phys_mem.set_u8 m 100 0xAB;
  check_int "u8" 0xAB (Hw.Phys_mem.get_u8 m 100);
  Hw.Phys_mem.set_u16 m 200 0xBEEF;
  check_int "u16" 0xBEEF (Hw.Phys_mem.get_u16 m 200);
  Hw.Phys_mem.set_u32 m 300 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Hw.Phys_mem.get_u32 m 300);
  Hw.Phys_mem.set_i64 m 400 0x1122334455667788L;
  Alcotest.(check int64) "i64" 0x1122334455667788L (Hw.Phys_mem.get_i64 m 400)

let test_phys_mem_blit_overlap () =
  let m = Hw.Phys_mem.create 4096 in
  Hw.Phys_mem.write_string m 0 "abcdefgh";
  Hw.Phys_mem.blit m ~src:0 ~dst:2 ~len:6;
  Alcotest.(check string) "memmove semantics" "ababcdef"
    (Bytes.to_string (Hw.Phys_mem.read_bytes m 0 8))

let test_phys_mem_bounds () =
  let m = Hw.Phys_mem.create 4096 in
  Alcotest.check_raises "oob write"
    (Invalid_argument "Phys_mem: access [0x1000, +1) out of memory") (fun () ->
      Hw.Phys_mem.set_u8 m 4096 1)

(* --- Instr --------------------------------------------------------------- *)

let test_instr_roundtrip () =
  let instrs =
    [
      Hw.Instr.Nop;
      Hw.Instr.Ret;
      Hw.Instr.Halt;
      Hw.Instr.Jmp 1234;
      Hw.Instr.Call (-56);
      Hw.Instr.Mov_imm (3, 99);
      Hw.Instr.Load (1, 4096);
      Hw.Instr.Store (2, 8192);
      Hw.Instr.Add (1, 2);
      Hw.Instr.Wrpkru;
      Hw.Instr.Rdpkru;
      Hw.Instr.Syscall;
    ]
  in
  let code = Hw.Instr.assemble instrs in
  let rec decode_all off acc =
    if off >= Bytes.length code then List.rev acc
    else
      match Hw.Instr.decode code off with
      | Some (i, next) -> decode_all next (i :: acc)
      | None -> Alcotest.failf "decode failed at offset %d" off
  in
  Alcotest.(check int) "same count" (List.length instrs) (List.length (decode_all 0 []));
  List.iter2
    (fun a b -> check_bool "instr equal" true (a = b))
    instrs (decode_all 0 [])

let test_scan_finds_wrpkru () =
  let code = Hw.Instr.assemble [ Nop; Nop; Wrpkru; Ret ] in
  match Hw.Instr.scan_forbidden code with
  | [ { offset; what } ] ->
      check_int "offset" 2 offset;
      Alcotest.(check string) "what" "wrpkru" what
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l)

let test_scan_finds_syscall () =
  let code = Hw.Instr.assemble [ Syscall ] in
  check_int "one hit" 1 (List.length (Hw.Instr.scan_forbidden code))

let test_scan_misaligned_sequence () =
  (* A wrpkru sequence hidden inside a mov immediate: the bytes
     0F 01 EF appear in the immediate, not as a decoded instruction.
     The scanner must still find it (ERIM-style). *)
  let imm = 0x00EF010F in
  let code = Hw.Instr.assemble [ Mov_imm (1, imm); Ret ] in
  let hits = Hw.Instr.scan_forbidden code in
  check_bool "found hidden wrpkru" true
    (List.exists (fun h -> h.Hw.Instr.what = "wrpkru") hits)

let test_scan_clean_code () =
  let code = Hw.Instr.assemble [ Nop; Mov_imm (1, 42); Load (1, 100); Ret ] in
  check_int "no hits" 0 (List.length (Hw.Instr.scan_forbidden code))

let test_synth_code_safe () =
  (* Synthesized component images must never contain forbidden bytes. *)
  List.iter
    (fun name ->
      let code = Hw.Instr.synth_code ~ops:2048 name in
      check_int (name ^ " clean") 0 (List.length (Hw.Instr.scan_forbidden code)))
    [ "VFSCORE"; "RAMFS"; "LWIP"; "NGINX"; "SQLITE"; "ALLOC"; "TIME"; "PLAT" ]

let test_synth_code_deterministic () =
  let a = Hw.Instr.synth_code "X" and b = Hw.Instr.synth_code "X" in
  check_bool "stable" true (Bytes.equal a b)

(* --- Cpu ----------------------------------------------------------------- *)

let mk_cpu () =
  let cpu = Hw.Cpu.create ~mem_bytes:(64 * 4096) () in
  (* identity-map all pages rw, key 0 *)
  for p = 0 to Hw.Cpu.npages cpu - 1 do
    Hw.Cpu.map_page cpu p Hw.Page_table.perm_rw ~key:0
  done;
  cpu

let test_cpu_rw_roundtrip () =
  let cpu = mk_cpu () in
  Hw.Cpu.write_u32 cpu 5000 0xCAFE;
  check_int "u32" 0xCAFE (Hw.Cpu.read_u32 cpu 5000);
  Hw.Cpu.write_string cpu 6000 "hello";
  Alcotest.(check string) "str" "hello"
    (Bytes.to_string (Hw.Cpu.read_bytes cpu 6000 5))

let test_cpu_not_present_fault () =
  let cpu = mk_cpu () in
  Hw.Cpu.unmap_page cpu 3;
  Alcotest.check_raises "not present"
    (Hw.Fault.Violation
       ( { Hw.Fault.addr = 4096 * 3; access = Hw.Fault.Read; key = 0; reason = Hw.Fault.Not_present },
         "?" ))
    (fun () -> ignore (Hw.Cpu.read_u8 cpu (4096 * 3)))

let test_cpu_page_perm_fault () =
  let cpu = mk_cpu () in
  Hw.Cpu.map_page cpu 4 Hw.Page_table.perm_r ~key:0;
  (* reads fine, writes fault *)
  ignore (Hw.Cpu.read_u8 cpu (4096 * 4));
  check_bool "write faults" true
    (try
       Hw.Cpu.write_u8 cpu (4096 * 4) 1;
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Page_perm)

let test_cpu_mpk_disabled_ignores_keys () =
  let cpu = mk_cpu () in
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_deny;
  (* MPK off: key is ignored *)
  Hw.Cpu.write_u8 cpu (4096 * 5) 1;
  check_int "read back" 1 (Hw.Cpu.read_u8 cpu (4096 * 5))

let test_cpu_mpk_key_fault () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  check_bool "key fault on read" true
    (try
       ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm && f.key = 7)

let test_cpu_mpk_write_disable () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.allow_read_only (Hw.Pkru.of_keys [ 0 ]) 7);
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  check_bool "wd blocks write" true
    (try
       Hw.Cpu.write_u8 cpu (4096 * 5) 1;
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm)

let test_cpu_handler_resolves () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  let resolved = ref 0 in
  Hw.Cpu.set_handler cpu
    (Some
       (fun cpu f ->
         incr resolved;
         (* retag the faulting page to an allowed key: trap-and-map *)
         Hw.Cpu.set_page_key cpu (Hw.Addr.page_of f.Hw.Fault.addr) 0;
         true));
  Hw.Cpu.write_u8 cpu (4096 * 5) 42;
  check_int "one fault" 1 !resolved;
  check_int "value stored" 42 (Hw.Cpu.read_u8 cpu (4096 * 5));
  check_int "no second fault" 1 !resolved

let test_cpu_handler_lies () =
  (* A handler that claims resolution but does not fix the permission
     must not cause an infinite loop: the access re-checks once and
     raises. *)
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  Hw.Cpu.set_handler cpu (Some (fun _ _ -> true));
  check_bool "still violates" true
    (try
       Hw.Cpu.write_u8 cpu (4096 * 5) 1;
       false
     with Hw.Fault.Violation _ -> true)

let test_cpu_exec_follows_access () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 6 Hw.Page_table.perm_x ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  (* stock MPK: exec not checked against PKRU *)
  Hw.Cpu.fetch cpu (4096 * 6) 4;
  (* modified MPK (the paper's hardware change): AD implies NX *)
  Hw.Cpu.set_exec_follows_access cpu true;
  check_bool "exec now faults" true
    (try
       Hw.Cpu.fetch cpu (4096 * 6) 4;
       false
     with Hw.Fault.Violation (f, _) -> f.access = Hw.Fault.Exec)

let test_cpu_blit_checks_both_sides () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 7 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  Hw.Cpu.write_string cpu 100 "data";
  check_bool "memcpy to protected page faults" true
    (try
       Hw.Cpu.memcpy cpu ~dst:(4096 * 7) ~src:100 ~len:4;
       false
     with Hw.Fault.Violation _ -> true)

let test_cpu_range_crossing_pages () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 9 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  (* a write spanning page 8 (allowed) into page 9 (denied) faults *)
  check_bool "spanning write faults" true
    (try
       Hw.Cpu.write_bytes cpu (4096 * 9 - 2) (Bytes.make 4 'x');
       false
     with Hw.Fault.Violation (f, _) -> Hw.Addr.page_of f.Hw.Fault.addr = 9)

let test_cpu_costs () =
  let cpu = mk_cpu () in
  let c0 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_allow;
  let c1 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  check_int "wrpkru cost" Hw.Cost.default_model.wrpkru (c1 - c0);
  Hw.Cpu.set_page_key cpu 1 3;
  let c2 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
  check_int "pkey cost" Hw.Cost.default_model.pkey_set (c2 - c1);
  check_int "wrpkru counted" 1 (Hw.Cpu.wrpkru_count cpu)

(* --- Caller-buffer copies ---------------------------------------------------- *)

(* [read_into]/[write_from] must be [read_bytes]/[write_bytes] without
   the host buffer: same bytes, cycles, memory charge, faults and trace.
   Each variant runs on a fresh, identically set-up machine; the host
   buffer is offset and guarded so a stray host write would show. *)
type copy_obs = {
  outcome : (string, Hw.Fault.t) result;
  cycles : int;
  mem : int;
  faults : int;
  trace : Telemetry.Event.t list;
}

let observe_copy setup f =
  let cpu = mk_cpu () in
  setup cpu;
  let bus = Hw.Cpu.bus cpu and cost = Hw.Cpu.cost cpu in
  Telemetry.Bus.set_tracing bus true;
  Telemetry.Bus.clear_ring bus;
  let c0 = Hw.Cost.cycles cost and m0 = cost.Hw.Cost.mem_bytes and f0 = Hw.Cpu.fault_count cpu in
  let outcome = match f cpu with s -> Ok s | exception Hw.Fault.Violation (flt, _) -> Error flt in
  {
    outcome;
    cycles = Hw.Cost.cycles cost - c0;
    mem = cost.Hw.Cost.mem_bytes - m0;
    faults = Hw.Cpu.fault_count cpu - f0;
    trace = List.map (fun e -> e.Telemetry.Bus.ev) (Telemetry.Bus.events bus);
  }

let same_obs msg a b =
  check_bool (msg ^ ": outcome") true (a.outcome = b.outcome);
  check_int (msg ^ ": cycles") a.cycles b.cycles;
  check_int (msg ^ ": mem_bytes") a.mem b.mem;
  check_int (msg ^ ": faults") a.faults b.faults;
  check_bool (msg ^ ": trace") true (a.trace = b.trace)

let guard = 7
let pattern len = String.init len (fun i -> Char.chr ((i * 31) land 0xFF))

let read_via_into cpu a len =
  let buf = Bytes.make (len + (2 * guard)) '#' in
  Hw.Cpu.read_into cpu a buf guard len;
  check_bool "guards intact" true
    (Bytes.sub_string buf 0 guard = String.make guard '#'
    && Bytes.sub_string buf (guard + len) guard = String.make guard '#');
  Bytes.sub_string buf guard len

(* memory around [a] after a write, as far as it exists *)
let around cpu a len =
  let lo = max 0 (a - 16) in
  let hi = min (Hw.Phys_mem.size (Hw.Cpu.mem cpu)) (a + len + 16) in
  if lo >= hi then "" else Bytes.to_string (Hw.Phys_mem.read_bytes (Hw.Cpu.mem cpu) lo (hi - lo))

let write_via_from cpu a len =
  let buf = Bytes.of_string (String.make guard '#' ^ pattern len ^ String.make guard '#') in
  Hw.Cpu.write_from cpu a buf guard len;
  around cpu a len

let write_via_bytes cpu a len =
  Hw.Cpu.write_bytes cpu a (Bytes.of_string (pattern len));
  around cpu a len

let copy_cases =
  let fill cpu = Hw.Phys_mem.write_string (Hw.Cpu.mem cpu) 0 (pattern (64 * 4096)) in
  let keyed cpu =
    fill cpu;
    Hw.Cpu.set_mpk_enabled cpu true;
    Hw.Cpu.map_page cpu 9 Hw.Page_table.perm_rw ~key:7;
    Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ])
  in
  let read_only cpu =
    fill cpu;
    Hw.Cpu.map_page cpu 4 Hw.Page_table.perm_r ~key:0
  in
  [
    ("single page", fill, (4096 * 2) + 100, 300);
    ("page crossing", fill, (4096 * 3) - 50, 200);
    ("whole page", fill, 4096 * 5, 4096);
    ("into a denied key", keyed, (4096 * 9) - 2, 4);
    ("read-only page", read_only, (4096 * 4) + 8, 64);
    ("beyond memory", fill, (64 * 4096) - 10, 20);
    ("far out of memory", fill, 1 lsl 40, 8);
  ]

let test_cpu_read_into_matches_read_bytes () =
  List.iter
    (fun (name, setup, a, len) ->
      same_obs ("read " ^ name)
        (observe_copy setup (fun cpu -> Bytes.to_string (Hw.Cpu.read_bytes cpu a len)))
        (observe_copy setup (fun cpu -> read_via_into cpu a len)))
    copy_cases

let test_cpu_write_from_matches_write_bytes () =
  List.iter
    (fun (name, setup, a, len) ->
      same_obs ("write " ^ name)
        (observe_copy setup (fun cpu -> write_via_bytes cpu a len))
        (observe_copy setup (fun cpu -> write_via_from cpu a len)))
    copy_cases

(* A bad host range is rejected before the machine is touched — even
   for an address that would fault. *)
let test_cpu_bad_host_range_charges_nothing () =
  let cpu = mk_cpu () in
  Hw.Cpu.unmap_page cpu 3;
  let buf = Bytes.create 16 in
  let cost = Hw.Cpu.cost cpu in
  List.iter
    (fun (what, f) ->
      let c0 = Hw.Cost.cycles cost and f0 = Hw.Cpu.fault_count cpu in
      check_bool (what ^ " raises") true
        (match f () with () -> false | exception Invalid_argument _ -> true);
      check_int (what ^ ": no cycles") c0 (Hw.Cost.cycles cost);
      check_int (what ^ ": no fault") f0 (Hw.Cpu.fault_count cpu))
    [
      ("read_into past end", fun () -> Hw.Cpu.read_into cpu (4096 * 3) buf 8 9);
      ("read_into negative off", fun () -> Hw.Cpu.read_into cpu 0 buf (-1) 4);
      ("write_from past end", fun () -> Hw.Cpu.write_from cpu (4096 * 3) buf 0 17);
      ("write_from off beyond", fun () -> Hw.Cpu.write_from cpu 0 buf 17 0);
      ("priv_read_into past end", fun () -> Hw.Cpu.priv_read_into cpu 0 buf 16 1);
    ];
  Alcotest.check_raises "negative length still reaches check_range"
    (Invalid_argument "Cpu.check_range: negative length") (fun () ->
      Hw.Cpu.read_into cpu 0 buf 0 (-1));
  Alcotest.check_raises "read_bytes negative length"
    (Invalid_argument "Cpu.check_range: negative length") (fun () ->
      ignore (Hw.Cpu.read_bytes cpu 0 (-1)))

let test_cpu_priv_fill_matches_zero_page () =
  let scrub f =
    let cpu = mk_cpu () in
    Hw.Phys_mem.write_string (Hw.Cpu.mem cpu) 4096 (pattern (3 * 4096));
    let c0 = Hw.Cost.cycles (Hw.Cpu.cost cpu) in
    f cpu (4096 * 2);
    (Hw.Cost.cycles (Hw.Cpu.cost cpu) - c0, around cpu (4096 * 2) 4096)
  in
  let c1, m1 = scrub (fun cpu a -> Hw.Cpu.priv_write_bytes cpu a (Bytes.make 4096 '\000')) in
  let c2, m2 = scrub (fun cpu a -> Hw.Cpu.priv_fill cpu a 4096 '\000') in
  check_int "same charge" c1 c2;
  Alcotest.(check string) "same contents" m1 m2;
  check_bool "page zeroed" true (String.sub m2 16 4096 = String.make 4096 '\000')

(* --- Tlb ------------------------------------------------------------------ *)

(* (a) A cached allow decision must die with the page's key: retag to a
   key the (unchanged) PKRU denies and the very next access faults. *)
let test_tlb_set_key_invalidates () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0; 7 ]);
  (* warm the TLB entry for page 5 *)
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  (* monitor-style retag to a foreign key, PKRU untouched *)
  Hw.Cpu.set_page_key cpu 5 9;
  check_bool "faults after retag" true
    (try
       ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm && f.key = 9)

(* (b) Full system: after a window is closed and the monitor has
   retagged the page back to its owner, a further call into the callee
   must fault (and be rejected) — no stale allow may survive in the
   TLB. *)
let test_tlb_window_close_observed () =
  let open Cubicle in
  let mon = Monitor.create ~protection:Types.Full () in
  let foo =
    Monitor.create_cubicle mon ~name:"FOO" ~kind:Types.Isolated ~heap_pages:8
      ~stack_pages:2
  in
  let bar =
    Monitor.create_cubicle mon ~name:"BAR" ~kind:Types.Isolated ~heap_pages:8
      ~stack_pages:2
  in
  Monitor.register_exports mon bar
    [
      {
        Monitor.sym = "bar_peek";
        fn = (fun ctx a -> Api.read_u8 ctx a.(0));
        stack_bytes = 0;
      };
    ];
  let ctx = Monitor.ctx_for mon foo in
  let buf = Api.malloc_page_aligned ctx 4096 in
  Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 42);
  let wid = Api.window_init ctx ~klass:Mm.Page_meta.Heap in
  Api.window_add ctx wid ~ptr:buf ~size:4096;
  Api.window_open ctx wid bar;
  check_int "peek through open window" 42 (Monitor.call mon ~caller:foo "bar_peek" [| buf |]);
  Api.window_close ctx wid bar;
  (* the owner touches the page: causal revocation retags it to FOO *)
  Monitor.run_as mon foo (fun () -> Api.write_u8 ctx buf 43);
  check_bool "closed window is closed" true
    (try
       ignore (Monitor.call mon ~caller:foo "bar_peek" [| buf |]);
       false
     with Hw.Fault.Violation _ | Types.Error _ -> true)

(* (c) A PKRU write must be observed by the next access. *)
let test_tlb_wrpkru_observed () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 5 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0; 7 ]);
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0 ]);
  check_bool "faults after wrpkru" true
    (try
       ignore (Hw.Cpu.read_u8 cpu (4096 * 5));
       false
     with Hw.Fault.Violation (f, _) -> f.reason = Hw.Fault.Key_perm);
  (* flipping back re-allows *)
  Hw.Cpu.wrpkru cpu (Hw.Pkru.of_keys [ 0; 7 ]);
  ignore (Hw.Cpu.read_u8 cpu (4096 * 5))

(* (d) Counters behave, and simulated cycles are identical on/off. *)
let test_tlb_counters () =
  let cpu = mk_cpu () in
  Hw.Cpu.set_mpk_enabled cpu true;
  let tlb = Hw.Cpu.tlb cpu in
  Hw.Tlb.reset_counters tlb;
  for _ = 1 to 100 do
    ignore (Hw.Cpu.read_u8 cpu 4096)
  done;
  check_int "one miss" 1 (Hw.Tlb.misses tlb);
  check_int "99 hits" 99 (Hw.Tlb.hits tlb);
  check_bool "hit rate" true (abs_float (Hw.Tlb.hit_rate tlb -. 0.99) < 1e-9);
  Hw.Cpu.set_page_key cpu 1 0;
  check_bool "invalidation counted" true (Hw.Tlb.invalidations tlb > 0);
  Hw.Cpu.wrpkru cpu Hw.Pkru.all_deny;
  check_bool "flush counted" true (Hw.Tlb.flushes tlb > 0)

let tlb_workload cpu =
  (* mixed reads/writes plus a resolved trap-and-map fault *)
  Hw.Cpu.set_mpk_enabled cpu true;
  Hw.Cpu.map_page cpu 9 Hw.Page_table.perm_rw ~key:7;
  Hw.Cpu.set_handler cpu
    (Some
       (fun cpu f ->
         Hw.Cpu.set_page_key cpu (Hw.Addr.page_of f.Hw.Fault.addr) 0;
         true));
  for i = 0 to 4999 do
    Hw.Cpu.write_u32 cpu (4096 + (i mod 1000 * 4)) i;
    ignore (Hw.Cpu.read_u32 cpu (4096 + (i mod 1000 * 4)))
  done;
  (* faulting access, resolved by the handler (trap-and-map) *)
  Hw.Cpu.write_u8 cpu (4096 * 9) 1;
  for _ = 1 to 1000 do
    ignore (Hw.Cpu.read_u8 cpu (4096 * 9))
  done

let test_tlb_cycles_identical () =
  let run enabled =
    let cpu = mk_cpu () in
    Hw.Cpu.set_tlb_enabled cpu enabled;
    tlb_workload cpu;
    (Hw.Cost.cycles (Hw.Cpu.cost cpu), Hw.Cpu.fault_count cpu, Hw.Cpu.wrpkru_count cpu)
  in
  let on_cycles, on_faults, on_wrpkru = run true in
  let off_cycles, off_faults, off_wrpkru = run false in
  check_int "cycles identical" off_cycles on_cycles;
  check_int "faults identical" off_faults on_faults;
  check_int "wrpkru identical" off_wrpkru on_wrpkru;
  (* and the TLB was actually exercised in the enabled run *)
  let cpu = mk_cpu () in
  tlb_workload cpu;
  check_bool "tlb exercised" true (Hw.Tlb.hit_rate (Hw.Cpu.tlb cpu) > 0.9)

let prop_cpu_write_read_roundtrip =
  QCheck.Test.make ~name:"cpu: bytes written are read back"
    QCheck.(pair (int_bound 1000) (string_of_size (QCheck.Gen.int_bound 200)))
    (fun (addr, s) ->
      let cpu = mk_cpu () in
      Hw.Cpu.write_string cpu addr s;
      Bytes.to_string (Hw.Cpu.read_bytes cpu addr (String.length s)) = s)

let instr_gen =
  QCheck.Gen.(
    oneof
      [
        return Hw.Instr.Nop;
        return Hw.Instr.Ret;
        return Hw.Instr.Halt;
        map (fun d -> Hw.Instr.Jmp d) (int_range (-100000) 100000);
        map (fun d -> Hw.Instr.Call d) (int_range (-100000) 100000);
        map2 (fun r i -> Hw.Instr.Mov_imm (r, i)) (int_bound 255) (int_range (-1000000) 1000000);
        map2 (fun r a -> Hw.Instr.Load (r, a)) (int_bound 255) (int_bound 1000000);
        map2 (fun r a -> Hw.Instr.Store (r, a)) (int_bound 255) (int_bound 1000000);
        map2 (fun a b -> Hw.Instr.Add (a, b)) (int_bound 255) (int_bound 255);
        return Hw.Instr.Wrpkru;
        return Hw.Instr.Rdpkru;
        return Hw.Instr.Syscall;
      ])

let prop_instr_assemble_decode =
  QCheck.Test.make ~name:"instr: assemble/decode roundtrip for whole programs"
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) instr_gen))
    (fun instrs ->
      let code = Hw.Instr.assemble instrs in
      let rec decode_all off acc =
        if off >= Bytes.length code then Some (List.rev acc)
        else
          match Hw.Instr.decode code off with
          | Some (i, next) -> decode_all next (i :: acc)
          | None -> None
      in
      decode_all 0 [] = Some instrs)

let prop_scan_iff_privileged =
  (* clean instruction streams (no Wrpkru/Syscall and no 0x0F bytes in
     operands) never trip the scanner *)
  QCheck.Test.make ~name:"scan: safe opcodes with safe operands never flagged"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 60)
           (oneof
              [
                return Hw.Instr.Nop;
                return Hw.Instr.Ret;
                map2
                  (fun r i -> Hw.Instr.Mov_imm (r land 0x0E, i land 0x0E0E0E))
                  (int_bound 255) (int_bound 0xFFFFFF);
                map2
                  (fun a b -> Hw.Instr.Add (a land 0x0E, b land 0x0E))
                  (int_bound 255) (int_bound 255);
              ])))
    (fun instrs -> Hw.Instr.scan_forbidden (Hw.Instr.assemble instrs) = [])

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_addr_roundtrip; prop_pkru_deny_allow_inverse; prop_cpu_write_read_roundtrip;
    prop_instr_assemble_decode; prop_scan_iff_privileged ]

let () =
  Alcotest.run "hw"
    [
      ( "addr",
        [
          Alcotest.test_case "basics" `Quick test_addr_basics;
        ] );
      ( "pkru",
        [
          Alcotest.test_case "basics" `Quick test_pkru_basics;
          Alcotest.test_case "all_allow" `Quick test_pkru_all_allow;
          Alcotest.test_case "of_keys" `Quick test_pkru_of_keys;
          Alcotest.test_case "bad key" `Quick test_pkru_bad_key;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "entry fields" `Quick test_page_table;
          Alcotest.test_case "allows" `Quick test_page_table_allows;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "scalars" `Quick test_phys_mem_scalars;
          Alcotest.test_case "blit overlap" `Quick test_phys_mem_blit_overlap;
          Alcotest.test_case "bounds" `Quick test_phys_mem_bounds;
        ] );
      ( "instr",
        [
          Alcotest.test_case "roundtrip" `Quick test_instr_roundtrip;
          Alcotest.test_case "scan wrpkru" `Quick test_scan_finds_wrpkru;
          Alcotest.test_case "scan syscall" `Quick test_scan_finds_syscall;
          Alcotest.test_case "scan misaligned" `Quick test_scan_misaligned_sequence;
          Alcotest.test_case "scan clean" `Quick test_scan_clean_code;
          Alcotest.test_case "synth safe" `Quick test_synth_code_safe;
          Alcotest.test_case "synth deterministic" `Quick test_synth_code_deterministic;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_cpu_rw_roundtrip;
          Alcotest.test_case "not present" `Quick test_cpu_not_present_fault;
          Alcotest.test_case "page perm" `Quick test_cpu_page_perm_fault;
          Alcotest.test_case "mpk off ignores keys" `Quick test_cpu_mpk_disabled_ignores_keys;
          Alcotest.test_case "mpk key fault" `Quick test_cpu_mpk_key_fault;
          Alcotest.test_case "write disable" `Quick test_cpu_mpk_write_disable;
          Alcotest.test_case "handler resolves" `Quick test_cpu_handler_resolves;
          Alcotest.test_case "handler lies" `Quick test_cpu_handler_lies;
          Alcotest.test_case "exec follows access" `Quick test_cpu_exec_follows_access;
          Alcotest.test_case "blit checks both" `Quick test_cpu_blit_checks_both_sides;
          Alcotest.test_case "range crossing" `Quick test_cpu_range_crossing_pages;
          Alcotest.test_case "costs" `Quick test_cpu_costs;
          Alcotest.test_case "read_into = read_bytes" `Quick test_cpu_read_into_matches_read_bytes;
          Alcotest.test_case "write_from = write_bytes" `Quick
            test_cpu_write_from_matches_write_bytes;
          Alcotest.test_case "bad host range" `Quick test_cpu_bad_host_range_charges_nothing;
          Alcotest.test_case "priv_fill = zero page" `Quick test_cpu_priv_fill_matches_zero_page;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "set_key invalidates" `Quick test_tlb_set_key_invalidates;
          Alcotest.test_case "window close observed" `Quick test_tlb_window_close_observed;
          Alcotest.test_case "wrpkru observed" `Quick test_tlb_wrpkru_observed;
          Alcotest.test_case "counters" `Quick test_tlb_counters;
          Alcotest.test_case "cycles identical on/off" `Quick test_tlb_cycles_identical;
        ] );
      ("properties", qsuite);
    ]
