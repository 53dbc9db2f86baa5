let min_beyond = 10

let nearest_rank ~pct n =
  if pct <= 0 || pct >= 100 then invalid_arg "nearest_rank: pct outside (0, 100)";
  if n <= 0 then invalid_arg "nearest_rank: no samples";
  max 1 (((pct * n) + 99) / 100)

type pctl = { value : int; samples : int; rank : int; beyond : int }

let percentile ~pct xs =
  let n = Array.length xs in
  let rank = nearest_rank ~pct n in
  let beyond = n - rank in
  if beyond < min_beyond then
    invalid_arg
      (Printf.sprintf "percentile: p%d of %d samples has %d beyond it (need %d)" pct n beyond
         min_beyond);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  { value = sorted.(rank - 1); samples = n; rank; beyond }

let scale ~ref_ns ~kernel_ns =
  if kernel_ns <= 0 then invalid_arg "scale: kernel time must be positive";
  float_of_int ref_ns /. float_of_int kernel_ns

let self_times ~top ~edges =
  let tbl = Hashtbl.create 16 in
  let add c v = Hashtbl.replace tbl c (v + Option.value ~default:0 (Hashtbl.find_opt tbl c)) in
  List.iter (fun (c, v) -> add c v) top;
  List.iter
    (fun ((caller, callee), sum) ->
      add callee sum;
      add caller (-sum))
    edges;
  Hashtbl.fold (fun c v acc -> (c, v) :: acc) tbl [] |> List.sort compare

let per_op ~ops x =
  if ops <= 0 then invalid_arg "per_op: no ops";
  float_of_int x /. float_of_int ops

let median_float = function
  | [] -> invalid_arg "median_float: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type value = Int of int | Float of float

let json_number = function
  | Int i -> string_of_int i
  | Float f -> (
      match Float.classify_float f with
      | FP_nan | FP_infinite -> invalid_arg "json_number: not a finite number"
      | _ -> Printf.sprintf "%.17g" f)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json ~correct ~attempted ~failed metrics =
  let seen = Hashtbl.create 64 in
  let body =
    List.map
      (fun (name, v, unit) ->
        if Hashtbl.mem seen name then invalid_arg ("result_json: duplicate metric " ^ name);
        Hashtbl.add seen name ();
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number v)
          (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)
