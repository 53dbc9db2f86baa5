(* http: the NGINX stack of Figure 7 with two NETDEV rings on one
   simulated core. Ring 0 is served by a copying Httpd.Server worker and
   ring 1 by a zero-copy (sendfile) worker. One op is one connection:
   SYN + GET injected on the ring, the ring's worker polled, frames
   collected until the whole response is back, and the body compared
   with the file. A round requests every file size on both rings once,
   in a seeded order, so seeds change file contents and order but not
   the amount of work. Sizes run from 512 B to 128 KiB: small files are
   bound by crossings and ALLOC, large ones by memcpy and frames. The
   client is the benchmark's own, so its cost stays fixed. *)

open Cubicle
open Harness

let name = "http"
let sizes = Array.init 17 (fun j -> int_of_float (512. *. (2. ** (float_of_int j /. 2.))))
let nrings = 2
let copy_ring = 0
let zerocopy_ring = 1
let block_rounds = 30 (* 30 x 17 sizes x 2 rings = 1020 ops *)
let mem_bytes = 128 * 1024 * 1024
let sp_poll = 0
let sp_netdev = 1
let sp_client = 2

let spans =
  [|
    { sname = "httpd.poll"; top = Some "NGINX" };
    { sname = "libos.netdev_host"; top = None };
    { sname = "client"; top = None };
  |]

type oracle = (string * string) array (* path, body; indexed like [sizes] *)

type sys = {
  boot : Libos.Boot.system;
  netdev : Libos.Netdev.state;
  mutable workers : Httpd.Server.t array; (* indexed by ring *)
  mutable next_conn : int;
}

let oracle ~seed =
  let st = Random.State.make [| seed; -1 |] in
  Array.mapi
    (fun j size ->
      ( Printf.sprintf "/www/%02d-%d.bin" j size,
        String.init size (fun _ -> Char.chr (32 + Random.State.int st 95)) ))
    sizes

let boot ~seed:_ =
  let app = Httpd.Server.component ~workers:nrings () in
  let boot =
    Libos.Boot.net_stack ~nrings ~mem_bytes ~extra:[ (app, Types.Isolated) ] ()
  in
  { boot; netdev = Option.get boot.Libos.Boot.netdev; workers = [||]; next_conn = 1 }

let populate s oracle =
  Libos.Boot.populate s.boot ~as_app:"NGINX" (Array.to_list oracle);
  s.workers <-
    [|
      Httpd.Server.start ~shard:copy_ring s.boot;
      Httpd.Server.start ~shard:zerocopy_ring ~zerocopy:true s.boot;
    |]

let mon s = s.boot.Libos.Boot.mon

let ext s =
  let a = Array.make ext_count 0 in
  a.(ext_netdev_frames) <- Libos.Netdev.tx_frames s.netdev + Libos.Netdev.rx_frames s.netdev;
  a

let header_end buf =
  let n = Buffer.length buf in
  let rec go i =
    if i + 4 > n then None
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

(* [Some (status, content length, body start)] once the header block of
   the response in [buf] is complete. *)
let parse_header buf =
  match header_end buf with
  | None -> None
  | Some body_start ->
      let header = String.lowercase_ascii (Buffer.sub buf 0 body_start) in
      let status = try int_of_string (String.sub header 9 3) with _ -> 0 in
      let len =
        let field = "content-length:" in
        match String.split_on_char '\n' header |> List.find_opt (String.starts_with ~prefix:field) with
        | Some l ->
            let n = String.length field in
            int_of_string (String.trim (String.sub l n (String.length l - n)))
        | None -> 0
      in
      Some (status, len, body_start)

(* LWIP steers connection [c] to shard [c mod nrings], so a connection
   id is picked to land on the wanted ring. *)
let fetch r s ~ring ~path ~body =
  let conn = (s.next_conn * nrings) + ring in
  s.next_conn <- s.next_conn + 1;
  let syn, get, reasm, response =
    span r sp_client (fun () ->
        ( Libos.Lwip.Frame.encode ~conn ~kind:Libos.Lwip.Frame.Syn ~payload:"" (),
          Libos.Lwip.Frame.encode ~conn ~kind:Libos.Lwip.Frame.Data
            ~payload:(Printf.sprintf "GET %s HTTP/1.0\r\nHost: bench\r\n\r\n" path)
            (),
          Libos.Lwip.Reassembly.create (),
          Buffer.create (String.length body + 128) ))
  in
  span r sp_netdev (fun () ->
      Libos.Netdev.host_inject ~ring s.netdev syn;
      Libos.Netdev.host_inject ~ring s.netdev get);
  let header = ref None in
  let rec loop stalled =
    let served = span r sp_poll (fun () -> Httpd.Server.poll s.workers.(ring)) in
    let frames = span r sp_netdev (fun () -> Libos.Netdev.host_collect s.netdev) in
    let verdict =
      span r sp_client (fun () ->
          List.iter
            (fun f ->
              let c, kind, seq, payload = Libos.Lwip.Frame.decode f in
              if c = conn && kind = Libos.Lwip.Frame.Data then
                Libos.Lwip.Reassembly.push reasm ~seq payload)
            frames;
          Buffer.add_string response (Libos.Lwip.Reassembly.pop_ready reasm);
          if !header = None then header := parse_header response;
          match !header with
          | Some (status, len, start) when Buffer.length response >= start + len ->
              Some
                (status = 200 && len = String.length body
                && Buffer.sub response start len = body)
          | _ -> None)
    in
    match verdict with
    | Some ok -> ok
    | None ->
        let stalled = if served = 0 && frames = [] then stalled + 1 else 0 in
        stalled <= 3 && loop stalled
  in
  loop 0

let round r s oracle ~seed i =
  let order = Array.init (Array.length sizes * nrings) Fun.id in
  span r sp_client (fun () -> shuffle (Random.State.make [| seed; i |]) order);
  Array.iter
    (fun k ->
      let ring = k mod nrings in
      let path, body = oracle.(k / nrings) in
      op r ~cls:ring (fun () -> fetch r s ~ring ~path ~body))
    order
