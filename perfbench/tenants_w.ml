(* tenants: 256 tenants behind one gateway, each a private FS+WEB
   cubicle pair with a virtual protection key -- 514 isolated cubicles
   over 14 physical MPK tags. One op is one request. A round sends one
   request to every tenant in round-robin order with seeded offsets and
   lengths, then tears one seeded tenant down and spawns it again, so
   cubicle lifecycle changes run alongside serving. Round-robin over
   far more cubicles than tags faults keys in and out on nearly every
   request. *)

open Harness

let name = "tenants"
let tenants = 256
let block_rounds = 16 (* 16 x 256 = 4096 ops *)
let sp_request = 0
let sp_spawn = 1
let sp_teardown = 2
let sp_client = 3

let spans =
  [|
    { sname = "httpd.tenant_request"; top = Some "GW" };
    { sname = "core.spawn"; top = None };
    { sname = "core.teardown"; top = None };
    { sname = "client"; top = None };
  |]

type oracle = unit (* responses are checked against Tenant.expected *)
type sys = Httpd.Tenant.t

let oracle ~seed:_ = ()
let boot ~seed:_ = Httpd.Tenant.boot ~virtualise:true ()

let populate s () =
  for i = 1 to tenants do
    Httpd.Tenant.spawn s i
  done

let mon = Httpd.Tenant.mon
let ext _ = Array.make ext_count 0

let round r s () ~seed i =
  let st = Random.State.make [| seed; i |] in
  for tenant = 1 to tenants do
    let off, len =
      span r sp_client (fun () -> (Random.State.int st 65536, 64 + Random.State.int st 961))
    in
    op r ~cls:0 (fun () ->
        let got = span r sp_request (fun () -> Httpd.Tenant.request s ~tenant ~off ~len) in
        span r sp_client (fun () -> String.equal got (Httpd.Tenant.expected ~tenant ~off ~len)))
  done;
  let victim = 1 + span r sp_client (fun () -> Random.State.int st tenants) in
  span r sp_client (fun () -> epoch r);
  span r sp_teardown (fun () -> Httpd.Tenant.teardown s victim);
  span r sp_client (fun () -> epoch r);
  span r sp_spawn (fun () -> Httpd.Tenant.spawn s victim);
  span r sp_client (fun () -> epoch r)
