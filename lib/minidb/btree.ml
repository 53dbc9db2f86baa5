open Cubicle

let page_size = Pager.page_size
let max_payload = 1024

type t = { pager : Pager.t; mutable root : int }

type leaf = {
  lkeys : int64 array;
  lpayloads : string array;
  next : int;  (* next-leaf page number + 1; 0 = none *)
}

type interior = {
  ikeys : int64 array;  (* n separators *)
  children : int array;  (* n+1 children; child i holds keys < ikeys.(i) …
                            precisely: keys k with (number of ikeys ≤ k) = i *)
}

type node = Leaf of leaf | Interior of interior

(* --- node (de)serialization ------------------------------------------------ *)

(* On-page format, little-endian: [kind u8][nkeys u16][u32], where the
   u32 is a leaf's [next] or an interior's first child; then per entry a
   leaf holds [key i64][len u16][payload], an interior [key i64][child
   u32]. Nodes are encoded into and decoded from the pager's staging
   page, so a node read or write allocates no page-sized host buffer. *)

let leaf_bytes payloads = Array.fold_left (fun acc p -> acc + 10 + String.length p) 7 payloads
let interior_bytes nkeys = 7 + (12 * nkeys)
let interior_max_keys = (page_size - 11) / 12

let node_bytes = function
  | Leaf l -> leaf_bytes l.lpayloads
  | Interior n -> interior_bytes (Array.length n.ikeys)

let encode_into b = function
  | Leaf l ->
      Bytes.set_uint8 b 0 1;
      Bytes.set_uint16_le b 1 (Array.length l.lkeys);
      Bytes.set_int32_le b 3 (Int32.of_int l.next);
      let pos = ref 7 in
      Array.iteri
        (fun i k ->
          let p = l.lpayloads.(i) in
          let len = String.length p in
          Bytes.set_int64_le b !pos k;
          Bytes.set_uint16_le b (!pos + 8) len;
          Bytes.blit_string p 0 b (!pos + 10) len;
          pos := !pos + 10 + len)
        l.lkeys
  | Interior n ->
      Bytes.set_uint8 b 0 2;
      Bytes.set_uint16_le b 1 (Array.length n.ikeys);
      Bytes.set_int32_le b 3 (Int32.of_int n.children.(0));
      Array.iteri
        (fun i k ->
          let off = 7 + (12 * i) in
          Bytes.set_int64_le b off k;
          Bytes.set_int32_le b (off + 8) (Int32.of_int n.children.(i + 1)))
        n.ikeys

(* Every extent is checked against the page before it is read, so a
   damaged page fails closed with a [Types.Error] naming it. *)
let decode_node pageno b =
  let corrupt () = Types.error "btree: corrupt node on page %d" pageno in
  let nkeys = Bytes.get_uint16_le b 1 in
  let u32 off = Int32.to_int (Bytes.get_int32_le b off) in
  match Bytes.get_uint8 b 0 with
  | 1 ->
      if 7 + (10 * nkeys) > page_size then corrupt ();
      let next = u32 3 in
      let lkeys = Array.make nkeys 0L in
      let lpayloads = Array.make nkeys "" in
      let pos = ref 7 in
      for i = 0 to nkeys - 1 do
        if !pos + 10 > page_size then corrupt ();
        let len = Bytes.get_uint16_le b (!pos + 8) in
        if !pos + 10 + len > page_size then corrupt ();
        lkeys.(i) <- Bytes.get_int64_le b !pos;
        lpayloads.(i) <- Bytes.sub_string b (!pos + 10) len;
        pos := !pos + 10 + len
      done;
      Leaf { lkeys; lpayloads; next }
  | 2 ->
      if interior_bytes nkeys > page_size then corrupt ();
      let children = Array.make (nkeys + 1) 0 in
      children.(0) <- u32 3;
      let ikeys = Array.make nkeys 0L in
      for i = 0 to nkeys - 1 do
        let off = 7 + (12 * i) in
        ikeys.(i) <- Bytes.get_int64_le b off;
        children.(i + 1) <- u32 (off + 8)
      done;
      Interior { ikeys; children }
  | k -> Types.error "btree: bad node kind %d" k

let read_node t pageno =
  Pager.read_page t.pager pageno (fun addr ->
      let stage = Pager.stage t.pager in
      Api.read_into (Pager.ctx t.pager) addr stage 0 page_size;
      decode_node pageno stage)

(* The whole node is written through the checked accessors, as the cost
   model charges it; encoding happens in the staging page inside the
   callback, so the stage cannot be reused between fill and copy-out. *)
let write_node t pageno node =
  let len = node_bytes node in
  if len > page_size then Types.error "btree: node overflows page";
  Pager.write_page t.pager pageno (fun addr ->
      let ctx = Pager.ctx t.pager and stage = Pager.stage t.pager in
      encode_into stage node;
      Api.write_from ctx addr stage 0 len;
      (* keep the rest of the page deterministic *)
      if len < page_size then Api.memset ctx (addr + len) (page_size - len) '\000')

let empty_leaf = Leaf { lkeys = [||]; lpayloads = [||]; next = 0 }

let create pager =
  let root = Pager.allocate_page pager in
  let t = { pager; root } in
  write_node t root empty_leaf;
  t

let attach pager ~root = { pager; root }
let root t = t.root

(* binary search: number of elements in [a] that are <= key *)
let rank (a : int64 array) (key : int64) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.compare a.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* position of key in a sorted array, or the insertion point *)
let find_pos (a : int64 array) (key : int64) =
  let r = rank a key in
  if r > 0 && Int64.equal a.(r - 1) key then `Found (r - 1) else `Insert r

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let array_set a i x =
  let a' = Array.copy a in
  a'.(i) <- x;
  a'

let sub a lo len = Array.sub a lo len

(* --- insert ----------------------------------------------------------------- *)

(* Returns [Some (sep, right_page)] when the node split. *)
let rec insert_at t pageno ~key ~payload =
  match read_node t pageno with
  | Leaf l -> (
      let lkeys, lpayloads =
        match find_pos l.lkeys key with
        | `Found i -> (l.lkeys, array_set l.lpayloads i payload)
        | `Insert i -> (array_insert l.lkeys i key, array_insert l.lpayloads i payload)
      in
      if leaf_bytes lpayloads <= page_size then begin
        write_node t pageno (Leaf { lkeys; lpayloads; next = l.next });
        None
      end
      else begin
        (* split: upper half moves to a fresh right sibling *)
        let n = Array.length lkeys in
        let mid = n / 2 in
        let right_page = Pager.allocate_page t.pager in
        let right =
          Leaf { lkeys = sub lkeys mid (n - mid); lpayloads = sub lpayloads mid (n - mid); next = l.next }
        in
        let left =
          Leaf { lkeys = sub lkeys 0 mid; lpayloads = sub lpayloads 0 mid; next = right_page + 1 }
        in
        write_node t right_page right;
        write_node t pageno left;
        Some (lkeys.(mid), right_page)
      end)
  | Interior n -> (
      let ci = rank n.ikeys key in
      match insert_at t n.children.(ci) ~key ~payload with
      | None -> None
      | Some (sep, right_page) ->
          let ikeys = array_insert n.ikeys ci sep in
          let children = array_insert n.children (ci + 1) right_page in
          if Array.length ikeys <= interior_max_keys then begin
            write_node t pageno (Interior { ikeys; children });
            None
          end
          else begin
            let m = Array.length ikeys / 2 in
            let up = ikeys.(m) in
            let right_page' = Pager.allocate_page t.pager in
            let right =
              Interior
                {
                  ikeys = sub ikeys (m + 1) (Array.length ikeys - m - 1);
                  children = sub children (m + 1) (Array.length children - m - 1);
                }
            in
            let left = Interior { ikeys = sub ikeys 0 m; children = sub children 0 (m + 1) } in
            write_node t right_page' right;
            write_node t pageno left;
            Some (up, right_page')
          end)

let insert t ~key ~payload =
  if String.length payload > max_payload then
    Types.error "btree: payload of %d bytes exceeds max %d" (String.length payload)
      max_payload;
  match insert_at t t.root ~key ~payload with
  | None -> ()
  | Some (sep, right_page) ->
      let new_root = Pager.allocate_page t.pager in
      write_node t new_root (Interior { ikeys = [| sep |]; children = [| t.root; right_page |] });
      t.root <- new_root

(* --- lookup ------------------------------------------------------------------ *)

let rec leaf_for t pageno key =
  match read_node t pageno with
  | Leaf l -> (pageno, l)
  | Interior n -> leaf_for t n.children.(rank n.ikeys key) key

let find t key =
  let _, l = leaf_for t t.root key in
  match find_pos l.lkeys key with
  | `Found i -> Some l.lpayloads.(i)
  | `Insert _ -> None

let delete t key =
  let pageno, l = leaf_for t t.root key in
  match find_pos l.lkeys key with
  | `Found i ->
      write_node t pageno
        (Leaf { lkeys = array_remove l.lkeys i; lpayloads = array_remove l.lpayloads i; next = l.next });
      true
  | `Insert _ -> false

(* --- range scans ---------------------------------------------------------------- *)

let iter_range t ~lo ~hi f =
  if Int64.compare lo hi <= 0 then begin
    let _, first = leaf_for t t.root lo in
    let rec walk (l : leaf) =
      let n = Array.length l.lkeys in
      let stop = ref false in
      for i = 0 to n - 1 do
        if not !stop then begin
          let k = l.lkeys.(i) in
          if Int64.compare k hi > 0 then stop := true
          else if Int64.compare k lo >= 0 then f k l.lpayloads.(i)
        end
      done;
      if (not !stop) && l.next <> 0 then
        match read_node t (l.next - 1) with
        | Leaf l' -> walk l'
        | Interior _ -> Types.error "btree: leaf chain reaches interior node"
    in
    walk first
  end

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k p -> acc := f !acc k p);
  !acc

let count_range t ~lo ~hi = fold_range t ~lo ~hi ~init:0 ~f:(fun acc _ _ -> acc + 1)
let iter_all t f = iter_range t ~lo:Int64.min_int ~hi:Int64.max_int f

let min_key t =
  let exception Found of int64 in
  try
    iter_all t (fun k _ -> raise (Found k));
    None
  with Found k -> Some k

let max_key t = fold_range t ~lo:Int64.min_int ~hi:Int64.max_int ~init:None ~f:(fun _ k _ -> Some k)

let depth t =
  let rec go pageno acc =
    match read_node t pageno with
    | Leaf _ -> acc
    | Interior n -> go n.children.(0) (acc + 1)
  in
  go t.root 1
