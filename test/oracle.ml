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
