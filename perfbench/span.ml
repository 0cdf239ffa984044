(* Host-time spans recorded by the benchmark around its calls into each
   layer's public functions.  Recording is off by default; a disabled
   [with_] is a plain call.  Spans nest on the calling domain (the
   benchmark never opens spans from pool workers), so a span's parent
   is whatever span was open when it started. *)

type t = {
  id : int;
  parent : int;  (** [-1] at top level *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

let now_ns () = Monotonic_clock.now ()
let seconds_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let enabled = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  open_ids := [];
  next_id := 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start_ns = now_ns () in
    let finish () =
      open_ids := List.tl !open_ids;
      recorded := { id; parent; name; start_ns; end_ns = now_ns () } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !recorded

(* Self time: the span's duration minus the part its children cover.
   Children of one span never overlap (single domain), so the covered
   part is the sum of their durations. *)
let self_seconds spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = seconds_between s.start_ns s.end_ns in
      Hashtbl.replace children s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      (s, seconds_between s.start_ns s.end_ns -. covered))
    spans

(* Total self seconds of the recorded spans named [name]. *)
let self_total name =
  List.fold_left
    (fun a (s, self) -> if s.name = name then a +. self else a)
    0.0
    (self_seconds (all ()))

type family = {
  f_name : string;
  calls : int;
  self_s : float;  (** total self seconds over the family's spans *)
  p50_s : float;  (** per-call duration, median *)
  tail : (float * float) option;
      (** the highest of p90/p99/p99.9 with at least ten calls beyond
          it, and its per-call duration *)
}

let percentile sorted q =
  let n = Array.length sorted in
  let k = int_of_float (ceil (q /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

let families spans =
  let by = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by s.name) in
      Hashtbl.replace by s.name ((s, self) :: prev))
    (self_seconds spans);
  Hashtbl.fold
    (fun name members acc ->
      let durs =
        Array.of_list
          (List.map (fun (s, _) -> seconds_between s.start_ns s.end_ns) members)
      in
      Array.sort compare durs;
      let n = Array.length durs in
      let tail =
        List.find_opt
          (fun q -> float_of_int n *. (1.0 -. (q /. 100.0)) >= 10.0)
          [ 99.9; 99.0; 90.0 ]
        |> Option.map (fun q -> (q, percentile durs q))
      in
      {
        f_name = name;
        calls = n;
        self_s = List.fold_left (fun a (_, self) -> a +. self) 0.0 members;
        p50_s = percentile durs 50.0;
        tail;
      }
      :: acc)
    by []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome_trace path spans =
  let t0 =
    List.fold_left (fun a s -> if s.start_ns < a then s.start_ns else a)
      Int64.max_int spans
  in
  let us a b = Int64.to_float (Int64.sub b a) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name (us t0 s.start_ns) (us s.start_ns s.end_ns) s.id s.parent)
    spans;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
