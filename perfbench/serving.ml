(* serve-steady and serve-storm: open-loop kvcache50 (Zipf 0.99) served
   on four routing groups in batches of eight.  Arrivals follow the
   generator's schedule, never completions, and latency counts from the
   simulated arrival, so the generator is never late.

   serve-steady sweeps three offered rates fault-free; Gen, Shard and
   Lat carry it.  serve-storm drives the same layer through a single
   crash and an all-group crash storm, on two topologies.  Unreplicated
   groups (s4) recover in place on the request path and drop the
   requests in flight; the drops are the model's expected behaviour, so
   they are reported and must repeat exactly, but do not count as
   failures.  Replicated groups (s4r1) promote a warm replica and replay
   the unacknowledged tail, and must drop nothing. *)

open Ido_runtime
open Common
module Serve = Ido_serve.Serve
module Config = Ido_serve.Config
module Fault = Ido_serve.Fault
module Gen = Ido_serve.Gen
module Lat = Ido_serve.Lat
module Shard = Ido_serve.Shard
module Topology = Ido_serve.Topology
module Report = Ido_serve.Report

let workload = "kvcache50"
let schemes = Scheme.[ Ido; Justdo ]
let requests = function Full -> 30_000 | Toy -> 400

(* Offered rates 1.0, 2.0 and 2.86 Mreq/s; the first is the reference
   rate the headline p99 and the justdo-vs-ido check read. *)
let steady_periods = [ 1000; 500; 350 ]
let reference_period = 1000
let p99_budget_ns = 50_000

type cell = { config : Config.t; fault : Config.t -> Fault.t }

let steady_cells ~seed size =
  List.concat_map
    (fun period_ns ->
      List.map
        (fun scheme ->
          {
            config =
              Config.make ~seed ~topology:(Topology.static 4) ~batch:8
                ~requests:(requests size) ~period_ns ~zipf:0.99 ~workload ~scheme ();
            fault = (fun _ -> Fault.none);
          })
        schemes)
    steady_periods

let storm_cells ~seed size =
  List.concat_map
    (fun topology ->
      List.concat_map
        (fun fault ->
          List.map
            (fun scheme ->
              {
                config =
                  Config.make ~seed ~topology ~batch:8 ~requests:(requests size)
                    ~period_ns:1500 ~zipf:0.99 ~workload ~scheme ();
                fault;
              })
            schemes)
        [ Fault.single_crash; (fun c -> Fault.storm ~k:4 c) ])
    [ Topology.static 4; Topology.replicated ~replicas:1 4 ]

let key_range = (Ido_workloads.Workload.get workload).Ido_workloads.Workload.request.Ido_workloads.Workload.key_range

let setup cells =
  let p = build workload in
  List.iter (fun s -> ignore (instrument s p)) schemes;
  List.map
    (fun c -> Span.with_ "serve.gen.plan" (fun () -> Gen.plan c.config ~key_range))
    cells

let is_scheme s (c : Serve.cell) = c.Serve.config.Config.scheme = s
let ido = is_scheme Scheme.Ido
let replicated (c : Serve.cell) = c.Serve.config.Config.topology.Topology.replicas > 0

(* Every cell must pass its oracles and obs reconciliation and account
   for every offered request; a replicated cell must also drop none. *)
let cell_errors (c : Serve.cell) =
  let label = Report.row_label c in
  let s = c.Serve.stats in
  List.filter_map Fun.id
    [
      result_error (label ^ " oracle") c.Serve.oracle;
      result_error (label ^ " obs") c.Serve.consistency;
      (if s.Lat.served + s.Lat.dropped <> c.Serve.config.Config.requests then
         Some (Printf.sprintf "%s: %d served + %d dropped <> %d offered" label s.Lat.served
                 s.Lat.dropped c.Serve.config.Config.requests)
       else None);
      (if replicated c && s.Lat.dropped > 0 then
         Some (Printf.sprintf "%s: %d requests dropped" label s.Lat.dropped)
       else None);
    ]

let at_reference cells scheme =
  List.find
    (fun c -> is_scheme scheme c && c.Serve.config.Config.period_ns = reference_period)
    cells

(* The highest offered rate whose p99 meets the budget with no growing
   backlog (served/makespan at least 0.9 of offered). *)
let max_rate cells scheme =
  List.fold_left
    (fun best (c : Serve.cell) ->
      let offered = 1000.0 /. float_of_int c.Serve.config.Config.period_ns in
      if is_scheme scheme c && c.Serve.stats.Lat.p99 <= p99_budget_ns
         && c.Serve.mops >= 0.9 *. offered
      then max best offered
      else best)
    0.0 cells

let sum f cells = List.fold_left (fun a c -> a + f c) 0 cells

let is_storm (c : Serve.cell) = String.starts_with ~prefix:"storm" c.Serve.fault.Fault.label
let ido_storm ~replicas cells = List.find (fun c -> ido c && is_storm c && replicated c = replicas) cells

(* Mean stall per failover over iDO's replicated cells: detection delay
   plus the replay of the unacknowledged batch tail.  A handful of
   failovers per pass, so it moves by a tenth from seed to seed:
   printed, not gated. *)
let ido_stall_ns cells =
  let cells = List.filter (fun c -> ido c && replicated c) cells in
  let failovers = sum (fun c -> sum (fun o -> o.Shard.failovers) c.Serve.shards) cells in
  float_of_int (sum (fun c -> c.Serve.unavail_ns) cells) /. float_of_int (max 1 failovers)

(* iDO's p99: at the reference rate, or through the all-group storm on
   replicated groups. *)
let headline ~storm cells =
  let c = if storm then ido_storm ~replicas:true cells else at_reference cells Scheme.Ido in
  float_of_int c.Serve.stats.Lat.p99

let workload_errors ~storm cells =
  List.concat_map cell_errors cells
  @
  if storm then
    List.filter_map
      (fun (c : Serve.cell) ->
        let count f = sum f c.Serve.shards in
        if replicated c then
          if count (fun o -> o.Shard.failovers) >= 1 then None
          else Some (Report.row_label c ^ ": no replica was promoted")
        else if count (fun o -> o.Shard.crashes) >= 1 && c.Serve.recovery_ns > 0 then None
        else Some (Report.row_label c ^ ": no group recovered in place"))
      cells
  else
    let i = at_reference cells Scheme.Ido and j = at_reference cells Scheme.Justdo in
    if j.Serve.stats.Lat.p99 > i.Serve.stats.Lat.p99 then []
    else
      [ Printf.sprintf "justdo p99 %d ns does not exceed ido p99 %d ns at the reference rate"
          j.Serve.stats.Lat.p99 i.Serve.stats.Lat.p99 ]

let info ~storm cells =
  if storm then
    let r = ido_storm ~replicas:true cells and s = ido_storm ~replicas:false cells in
    [
      ("ido_failover_stall_ns", ido_stall_ns cells, "ns");
      ("ido_failover_max_stall_ns", float_of_int r.Serve.max_stall_ns, "ns");
      ("replayed", float_of_int (sum (fun c -> c.Serve.replayed) cells), "count");
      ("ido_inplace_max_stall_ns", float_of_int s.Serve.max_stall_ns, "ns");
      ("ido_inplace_recovery_ns", float_of_int s.Serve.recovery_ns, "ns");
      ("ido_inplace_p99_ns", float_of_int s.Serve.stats.Lat.p99, "ns");
      ("dropped", float_of_int (sum (fun c -> c.Serve.stats.Lat.dropped) cells), "count");
    ]
  else
    let i = at_reference cells Scheme.Ido and j = at_reference cells Scheme.Justdo in
    [
      ("ido_p50_ns", float_of_int i.Serve.stats.Lat.p50, "ns");
      ("ido_n", float_of_int i.Serve.stats.Lat.served, "count");
      ("justdo_p99_ns", float_of_int j.Serve.stats.Lat.p99, "ns");
      ("ido_max_rate_mreq_s", max_rate cells Scheme.Ido, "Mreq/s");
      ("justdo_max_rate_mreq_s", max_rate cells Scheme.Justdo, "Mreq/s");
    ]

let cells_of ~storm = if storm then storm_cells else steady_cells

let round ~storm ~seed size =
  let cells = cells_of ~storm ~seed size in
  let setup_s = time_median ~reps:5 (fun () -> ignore (setup cells)) in
  let measured_s, served =
    measure (fun () ->
        List.map (fun c -> Serve.run_cell ~fault:(c.fault c.config) c.config) cells)
  in
  let errors = workload_errors ~storm served in
  let offered = sum (fun c -> c.config.Config.requests) cells in
  let units = sum (fun c -> c.Serve.stats.Lat.served) served in
  {
    setup_s;
    measured_s;
    units;
    attempted = offered;
    failed =
      sum (fun c -> if cell_errors c = [] then 0 else c.Serve.config.Config.requests) served;
    sim_ns = headline ~storm served;
    digest = String.concat "\n" (List.map Report.cell_json served);
    errors;
    info = info ~storm served;
  }

(* [Serve.run_cell] rebuilt from its layers: the plan, a generator-only
   drain of every sub-stream, one [Shard.run_unit] per group, the
   bucket-wise latency merge and the JSON report. *)
let compose plan (c : cell) =
  let config = c.config and fault = c.fault c.config in
  let w = Ido_workloads.Workload.get workload in
  let program = Ido_workloads.Workload.program w in
  let groups = List.init (Config.shards config) Fun.id in
  Span.with_ "serve.gen.drain" (fun () ->
      List.iter
        (fun g ->
          let st = Gen.sub_stream plan g in
          while Gen.next st <> None do () done)
        groups);
  let outcomes =
    List.concat_map
      (fun g ->
        Span.with_ "serve.shard" (fun () ->
            Shard.run_unit ~obs:true ~fault ~config ~program
              ~oracle:w.Ido_workloads.Workload.oracle ~plan [ g ]))
      groups
  in
  let lat =
    Span.with_ "serve.lat.merge" (fun () ->
        let lat = Lat.create () in
        List.iter (fun o -> Lat.merge ~into:lat o.Shard.lat) outcomes;
        lat)
  in
  let dropped = List.fold_left (fun a o -> a + o.Shard.dropped) 0 outcomes in
  let stats = Lat.stats ~dropped lat in
  let makespan_ns = List.fold_left (fun a o -> max a o.Shard.busy_until) 0 outcomes in
  let first pick =
    List.fold_left (fun acc o -> match acc with Error _ -> acc | Ok () -> pick o) (Ok ()) outcomes
  in
  let fold f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  {
    Serve.config;
    fault;
    stats;
    makespan_ns;
    mops = (if makespan_ns = 0 then 0.0 else float_of_int stats.Lat.served /. float_of_int makespan_ns *. 1000.0);
    shards = outcomes;
    replayed = fold (fun o -> o.Shard.replayed);
    recovery_ns = fold (fun o -> o.Shard.recovery_ns);
    unavail_ns = fold (fun o -> o.Shard.unavail_ns);
    max_stall_ns = List.fold_left (fun a o -> max a o.Shard.max_stall_ns) 0 outcomes;
    oracle = first (fun o -> o.Shard.oracle);
    consistency = first (fun o -> o.Shard.consistency);
  }

let trace ~storm ~seed size =
  let cells = cells_of ~storm ~seed size in
  let plain_s, reference =
    time (fun () -> List.map (fun c -> Serve.run_cell ~fault:(c.fault c.config) c.config) cells)
  in
  let composed =
    traced_section (fun () ->
        let plans = setup cells in
        let composed = List.map2 (fun plan c -> compose plan c) plans cells in
        ignore (Span.with_ "serve.report" (fun () -> Report.to_json composed));
        composed)
  in
  let errors =
    workload_errors ~storm composed
    @ List.filter_map
        (fun (mine, theirs) ->
          if Report.cell_json mine = Report.cell_json theirs then None
          else Some (Report.row_label theirs ^ ": composed cell differs from Serve.run_cell"))
        (List.combine composed reference)
  in
  let requests = float_of_int (sum (fun c -> c.config.Config.requests) cells) in
  let outcomes = List.concat_map (fun c -> c.Serve.shards) composed in
  let total f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes) in
  {
    t_attempted = int_of_float requests;
    t_failed = List.length errors;
    t_errors = errors;
    t_plain_s = plain_s;
    t_metrics =
      [
        ("serve.gen.requests_per_host_s", requests /. Span.self_total "serve.gen.drain");
        ( "serve.shard.requests_per_host_s",
          total (fun o -> o.Shard.served) /. Span.self_total "serve.shard" );
        ("serve.shard.replica_frac", total (fun o -> o.Shard.replica_ns) /. total (fun o -> o.Shard.sim_ns));
        ("serve.shard.replayed", total (fun o -> o.Shard.replayed));
        ("serve.shard.failovers", total (fun o -> o.Shard.failovers));
        ("serve.shard.dropped", total (fun o -> o.Shard.dropped));
        ("serve.shard.recovery_ns", total (fun o -> o.Shard.recovery_ns));
      ];
  }
