open Ido_util
open Ido_workloads

type cell = {
  config : Config.t;
  fault : Fault.t;
  stats : Lat.stats;
  makespan_ns : int;
  mops : float;
  shards : Shard.outcome list;
  replayed : int;
  recovery_ns : int;
  unavail_ns : int;
  max_stall_ns : int;
  oracle : (unit, string) result;
  consistency : (unit, string) result;
}

let first_error outcomes pick =
  List.fold_left
    (fun acc o -> match acc with Error _ -> acc | Ok () -> pick o)
    (Ok ()) outcomes

let run_cell ?pool ?(chunk = 1) ?(obs = false) ?(fault = Fault.none)
    (config : Config.t) =
  Fault.validate config fault;
  let w = Workload.get config.Config.workload in
  (* Force the program once, on this domain: the registry thunk is
     lazy and lazy forcing is not domain-safe. *)
  let program = Workload.program w in
  let oracle = w.Workload.oracle in
  (* The plan (per-group masses and counts) is the only whole-stream
     computation; each lane then pulls its requests lazily from a
     stream created on its own domain. *)
  let plan =
    Gen.plan config ~key_range:w.Workload.request.Workload.key_range
  in
  let groups = Config.shards config in
  (* Units: the sets of groups that must be simulated together.  Only
     a Merge couples two groups (the cold lane rebinds to the hot
     station mid-stream); everything else is a singleton.  Units are
     ordered by least member, so submission order — and therefore the
     pool-result order — is deterministic. *)
  let units =
    match config.Config.topology.Topology.reshard with
    | Some Topology.Merge ->
        let hot = Gen.hottest plan and cold = Gen.coldest plan in
        let pair = List.sort Int.compare [ hot; cold ] in
        let rest =
          List.filter
            (fun g -> not (List.mem g pair))
            (List.init groups Fun.id)
        in
        List.sort
          (fun a b -> Int.compare (List.hd a) (List.hd b))
          (pair :: List.map (fun g -> [ g ]) rest)
    | _ -> List.init groups (fun g -> [ g ])
  in
  let outcomes =
    Pool.opt_map_list ~chunk pool
      (fun unit ->
        Shard.run_unit ~obs ~fault ~config ~program ~oracle ~plan unit)
      units
    |> List.concat
    |> List.sort (fun a b -> Int.compare a.Shard.group b.Shard.group)
  in
  (* Bucket-wise sketch merge: exact, order-independent in value but
     merged in group order all the same. *)
  let lat = Lat.create () in
  List.iter (fun o -> Lat.merge ~into:lat o.Shard.lat) outcomes;
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let dropped = sum (fun o -> o.Shard.dropped) in
  let stats = Lat.stats ~dropped lat in
  let makespan_ns =
    List.fold_left (fun a o -> max a o.Shard.busy_until) 0 outcomes
  in
  {
    config;
    fault;
    stats;
    makespan_ns;
    mops =
      (if makespan_ns = 0 then 0.0
       else float_of_int stats.Lat.served /. float_of_int makespan_ns *. 1000.0);
    shards = outcomes;
    replayed = sum (fun o -> o.Shard.replayed);
    recovery_ns = sum (fun o -> o.Shard.recovery_ns);
    unavail_ns = sum (fun o -> o.Shard.unavail_ns);
    max_stall_ns =
      List.fold_left (fun a o -> max a o.Shard.max_stall_ns) 0 outcomes;
    oracle = first_error outcomes (fun o -> o.Shard.oracle);
    consistency = first_error outcomes (fun o -> o.Shard.consistency);
  }
