open Ido_util
open Ido_workloads

type crash_plan = {
  shard : int;
  at_request : int;
  after_ns : int;
}

type event =
  | Crash of crash_plan
  | Crash_at of { group : int; at_ns : int }
  | Replica_loss of { group : int; at_ns : int }

type t = {
  label : string;
  detect_ns : int;
  events : event list;
}

let none = { label = "none"; detect_ns = Topology.detect_ns; events = [] }

let of_crash pl =
  { label = "crash1"; detect_ns = Topology.detect_ns; events = [ Crash pl ] }

(* The deterministic mid-stream crash point: pick the group from the
   seed, crash in the batch around the middle of its sub-stream.
   Sub-stream lengths come from the plan — nothing is generated.  If
   the seeded group happens to own no requests, fall back to the
   busiest one so the crash always lands. *)
let default_crash_plan (config : Config.t) =
  let w = Workload.get config.Config.workload in
  let plan =
    Gen.plan config ~key_range:w.Workload.request.Workload.key_range
  in
  let rng = Rng.create (config.Config.seed lxor 0x5eed) in
  let shard = ref (Rng.int rng (Config.shards config)) in
  if Gen.shard_count plan !shard = 0 then begin
    for s = 0 to Config.shards config - 1 do
      if Gen.shard_count plan s > Gen.shard_count plan !shard then shard := s
    done
  end;
  let len = Gen.shard_count plan !shard in
  { shard = !shard; at_request = len / 2; after_ns = 400 }

let single_crash config = of_crash (default_crash_plan config)

let storm ?k ?at_ns (c : Config.t) =
  let groups = Config.shards c in
  let k = match k with Some k -> k | None -> max 1 (groups / 2) in
  if k < 1 || k > groups then
    invalid_arg
      (Printf.sprintf "Fault.storm: k must be in [1, %d] (got %d)" groups k);
  let at_ns = match at_ns with Some t -> t | None -> Config.mid_stream_ns c in
  (* Seeded k-of-N draw without replacement: shuffle the group indices
     with the cell seed (distinct salt from every other consumer) and
     take the first k, reported in ascending order. *)
  let rng = Rng.create (c.Config.seed lxor 0x570_07) in
  let idx = Array.init groups Fun.id in
  for i = groups - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  let hit = List.sort Int.compare (Array.to_list (Array.sub idx 0 k)) in
  {
    label = Printf.sprintf "storm%d" k;
    detect_ns = Topology.detect_ns;
    events = List.map (fun g -> Crash_at { group = g; at_ns }) hit;
  }

let validate (c : Config.t) t =
  let groups = Config.shards c in
  let check what g =
    if g < 0 || g >= groups then
      invalid_arg
        (Printf.sprintf
           "Fault %s: %s names group %d outside the topology's [0, %d)"
           t.label what g groups)
  in
  List.iter
    (function
      | Crash pl -> check "crash" pl.shard
      | Crash_at { group; _ } -> check "storm member" group
      | Replica_loss { group; _ } -> check "replica loss" group)
    t.events
