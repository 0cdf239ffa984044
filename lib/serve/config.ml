open Ido_runtime

type t = {
  workload : string;
  scheme : Scheme.t;
  seed : int;
  topology : Topology.t;
  batch : int;
  requests : int;
  period_ns : int;
  zipf : float option;
  opt : bool;
}

let make ?(seed = 42) ?topology ?(batch = 1) ?(requests = 1000)
    ?(period_ns = 1500) ?zipf ?(opt = false) ~workload ~scheme () =
  let topology =
    match topology with Some t -> t | None -> Topology.static 1
  in
  if batch < 1 then invalid_arg "Serve: batch must be >= 1";
  if requests < 1 then invalid_arg "Serve: requests must be >= 1";
  if period_ns < 1 then invalid_arg "Serve: period_ns must be >= 1";
  (* Validate here, not deep inside Gen's first Zipf.create: a bad
     exponent is a usage error the CLIs turn into exit 2, never an
     uncaught Invalid_argument mid-sweep. *)
  (match zipf with
  | Some e when e <= 0.0 || e = 1.0 ->
      invalid_arg
        (Printf.sprintf
           "Serve: zipf exponent must be positive and not 1.0 (got %g)" e)
  | _ -> ());
  { workload; scheme; seed; topology; batch; requests; period_ns; zipf; opt }

let shards c = c.topology.Topology.groups
let mid_stream_ns c = c.requests * c.period_ns / 2

(* The SplitMix64 avalanche keeps sibling shards' seeds uncorrelated
   even though they differ by one in the input. *)
let shard_seed ?(salt = 0) c shard =
  let z = Ido_util.Rng.mix64 (Int64.of_int (c.seed lxor (salt * 0x9E3779B9))) in
  let z = Ido_util.Rng.mix64 (Int64.add z (Int64.of_int shard)) in
  Int64.to_int (Int64.logand z Int64.max_int)

let label c =
  Printf.sprintf "%s/%s %s b%d%s" c.workload (Scheme.name c.scheme)
    (Topology.name c.topology) c.batch
    (if c.opt then " opt" else "")

let json_fields c =
  Printf.sprintf
    ({|"workload":"%s","scheme":"%s","seed":%d,"topology":"%s",|}
   ^^ {|"shards":%d,"replicas":%d,"batch":%d,|}
   ^^ {|"requests":%d,"period_ns":%d,"zipf":%s,"opt":%b|})
    c.workload (Scheme.name c.scheme) c.seed
    (Topology.name c.topology)
    (shards c) c.topology.Topology.replicas c.batch c.requests c.period_ns
    (match c.zipf with None -> "null" | Some e -> Printf.sprintf "%.4f" e)
    c.opt
