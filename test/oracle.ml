(* Reference oracles shared by the test suites. *)

(* Page ownership by full scan of the page metadata, O(machine pages).
   The monitor answers the same question from each cubicle's recorded
   page runs ([Monitor.owned_pages]); the differential tests compare
   the two. *)
let owned_by meta ~npages cid =
  let acc = ref [] in
  for p = npages - 1 downto 0 do
    if Mm.Page_meta.owner meta p = Some cid then acc := p :: !acc
  done;
  !acc

let owned_by_cubicle mon cid =
  let open Cubicle in
  owned_by (Monitor.meta mon) ~npages:(Hw.Cpu.npages (Monitor.cpu mon)) cid

(* The paper's linear scan of one descriptor array (§5.3 step ❸),
   built from public [Window] functions only: the live windows of
   [klass], newest first, and the 1-based position of the first that
   contains [addr]. [Window.search]'s page index must agree with it,
   descriptor count included. *)
let search_linear tbl ~klass ~addr =
  let open Cubicle in
  let rec scan inspected = function
    | [] -> None
    | w :: rest ->
        if Window.contains w addr then Some (w, inspected + 1) else scan (inspected + 1) rest
  in
  scan 0 (List.filter (fun (w : Window.t) -> w.klass = klass) (Window.live_windows tbl))

(* Reference B-tree node codec: a plain Buffer/String implementation
   that defines the on-page format the staged codec in [Minidb.Btree]
   must keep. A page holds [kind u8][nkeys u16][u32] — a
   leaf's next-leaf link (page + 1, 0 = none) or an interior's first
   child — then per entry [key i64][len u16][payload] in a leaf and
   [key i64][child u32] in an interior, little-endian, zero-padded. *)
type node =
  | Leaf of { entries : (int64 * string) list; next : int }
  | Interior of { first : int; seps : (int64 * int) list }

let encode_node node =
  let b = Buffer.create 512 in
  (match node with
  | Leaf { entries; next } ->
      Buffer.add_uint8 b 1;
      Buffer.add_uint16_le b (List.length entries);
      Buffer.add_int32_le b (Int32.of_int next);
      List.iter
        (fun (k, p) ->
          Buffer.add_int64_le b k;
          Buffer.add_uint16_le b (String.length p);
          Buffer.add_string b p)
        entries
  | Interior { first; seps } ->
      Buffer.add_uint8 b 2;
      Buffer.add_uint16_le b (List.length seps);
      Buffer.add_int32_le b (Int32.of_int first);
      List.iter
        (fun (k, child) ->
          Buffer.add_int64_le b k;
          Buffer.add_int32_le b (Int32.of_int child))
        seps);
  Buffer.contents b

let decode_node s =
  let nkeys = Char.code s.[1] lor (Char.code s.[2] lsl 8) in
  let u32 off = Int32.to_int (String.get_int32_le s off) in
  match Char.code s.[0] with
  | 1 ->
      let pos = ref 7 in
      let entries =
        List.init nkeys (fun _ ->
            let k = String.get_int64_le s !pos in
            let len = Char.code s.[!pos + 8] lor (Char.code s.[!pos + 9] lsl 8) in
            let p = String.sub s (!pos + 10) len in
            pos := !pos + 10 + len;
            (k, p))
      in
      Leaf { entries; next = u32 3 }
  | 2 ->
      Interior
        {
          first = u32 3;
          seps =
            List.init nkeys (fun i ->
                let off = 7 + (12 * i) in
                (String.get_int64_le s off, u32 (off + 8)));
        }
  | k -> failwith (Printf.sprintf "oracle: bad node kind %d" k)
