module Machine = Gpp_arch.Machine
module Analytic = Gpp_model.Analytic
module Timing = Gpp_cpu.Timing
module Sim = Gpp_gpusim.Gpu_sim
module Analyzer = Gpp_dataflow.Analyzer
module Explore = Gpp_transform.Explore
module Calibrate = Gpp_pcie.Calibrate
module Predictor = Gpp_predict.Predictor

type t = {
  machine : Machine.t;
  machines : Machine.t list;
  seed : int64;
  outlier_probability : float;
  protocol : Gpp_pcie.Calibrate.protocol option;
  runs : int option;
  iterations : int option;
  use_cache : bool option;
  analytic : Gpp_model.Analytic.params option;
  space : Gpp_transform.Explore.space option;
  policy : Gpp_dataflow.Analyzer.policy option;
  sim : Gpp_gpusim.Gpu_sim.config option;
  cpu : Gpp_cpu.Timing.params option;
  predictor : Gpp_predict.Predictor.t;
  predict_lambda : float;
  lint : bool;
  jobs : int;
  cache_enabled : bool;
  cache_dir : string option;
  trace : string option;
  verbose : bool;
  listen : string;  (* serve: HOST:PORT or unix:PATH *)
  flush_every : int;  (* serve: flush the disk cache every N requests *)
}

(* Mirrors Grophecy.init's defaults exactly: resolving a default config
   and running it must be bit-identical to the historical
   [Grophecy.init machine] + [Grophecy.analyze session program] path. *)
let default =
  {
    machine = Machine.argonne_node;
    machines = Machine.catalog;
    seed = 0x1B0A_2013_6CA1_55AAL;
    outlier_probability = 0.05;
    protocol = None;
    runs = None;
    iterations = None;
    use_cache = None;
    analytic = None;
    space = None;
    policy = None;
    sim = None;
    cpu = None;
    predictor = Gpp_predict.Predictor.analytic;
    predict_lambda = Gpp_predict.Correction.default_lambda;
    lint = false;
    jobs = 1;
    cache_enabled = true;
    cache_dir = None;
    trace = None;
    verbose = false;
    listen = "127.0.0.1:8080";
    flush_every = 64;
  }

let core_params (t : t) =
  {
    Gpp_core.Grophecy.cache = t.use_cache;
    analytic_params = t.analytic;
    space = t.space;
    policy = t.policy;
    sim_config = t.sim;
    cpu_params = t.cpu;
    runs = t.runs;
    iterations = t.iterations;
  }

(* Builtin-catalog lookup, for callers that resolve a name without a
   scenario (the simple CLI commands).  Layered resolution goes through
   [t.machines] instead, so file-loaded machines are addressable too. *)
let machine_of_name name = Machines.find Machine.catalog name

let find_machine (t : t) name = Machines.find t.machines name

(* --- value parsers ---------------------------------------------------- *)

let ( let* ) = Result.bind

(* [List.map] with a function that can fail; the first error wins. *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_ok f rest in
      Ok (y :: ys)

let bool_of_atom s =
  match String.lowercase_ascii s with
  | "true" | "yes" | "on" | "1" -> Ok true
  | "false" | "no" | "off" | "0" -> Ok false
  | _ -> Error (Printf.sprintf "expected a boolean, got %S" s)

let int_of_atom s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected an integer, got %S" s)

let pos_int_of_atom s =
  let* n = int_of_atom s in
  if n >= 1 then Ok n else Error (Printf.sprintf "expected a positive integer, got %d" n)

let nonneg_int_of_atom s =
  let* n = int_of_atom s in
  if n >= 0 then Ok n else Error (Printf.sprintf "expected a non-negative integer, got %d" n)

let int64_of_atom s =
  match Int64.of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected an integer seed, got %S" s)

let float_of_atom s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "expected a number, got %S" s)

let nonneg_float_of_atom s =
  let* f = float_of_atom s in
  if f >= 0.0 then Ok f else Error (Printf.sprintf "expected a non-negative number, got %g" f)

let pos_float_of_atom s =
  let* f = float_of_atom s in
  if f > 0.0 then Ok f else Error (Printf.sprintf "expected a positive number, got %g" f)

let probability_of_atom s =
  let* f = float_of_atom s in
  if f >= 0.0 && f <= 1.0 then Ok f
  else Error (Printf.sprintf "expected a probability in [0, 1], got %g" f)

(* --- the settings table ---------------------------------------------- *)

type setting = {
  key : string;
  env : string option;
  env_negated : bool;
  flag : string option;
  set : t -> Sexp.t -> (t, string) result;
}

let setting ?env ?(env_negated = false) ?flag key set = { key; env; env_negated; flag; set }

let atom_value parse = function
  | Sexp.Atom a -> parse a
  | Sexp.List _ -> Error "expected an atom, got a list"

(* A one-atom value: [parse] it, then [put] it into the record. *)
let atom parse put r v = Result.map (put r) (atom_value parse v)

let int_list put r = function
  | Sexp.Atom _ -> Error "expected a list of positive integers"
  | Sexp.List items -> Result.map (put r) (map_ok (atom_value pos_int_of_atom) items)

(* A field of an optional parameter group.  An unset group starts from
   the library defaults, so a partial group overrides only what it
   names. *)
let group get put default set t v =
  let* g = set (Option.value (get t) ~default) v in
  Ok (put t (Some g))

let analytic = group (fun t -> t.analytic) (fun t analytic -> { t with analytic }) Analytic.default_params
let cpu = group (fun t -> t.cpu) (fun t cpu -> { t with cpu }) Timing.default_params
let sim = group (fun t -> t.sim) (fun t sim -> { t with sim }) Sim.default_config
let policy = group (fun t -> t.policy) (fun t policy -> { t with policy }) Analyzer.default_policy
let space = group (fun t -> t.space) (fun t space -> { t with space }) Explore.default_space

let protocol =
  group (fun t -> t.protocol) (fun t protocol -> { t with protocol }) Calibrate.default_protocol

(* A catalog arrives inline, as a file's [(machines (<descriptor> ...))]
   group, or as the path of a catalog file. *)
let set_machines t = function
  | Sexp.Atom path -> (
      match Machines.load_file ~base:t.machines path with
      | Ok machines -> Ok { t with machines }
      | Error e -> Error (Error.message e))
  | Sexp.List descriptors ->
      Result.map
        (fun machines -> { t with machines })
        (Machines.extend_result ~base:t.machines descriptors)

(* Table order is application order within a layer: [machines] comes
   first, so a layer's catalog merges before its [machine] resolves. *)
let settings =
  [
    setting "machines" ~env:"GPP_MACHINES" ~flag:"machines" set_machines;
    setting "machine" ~env:"GPP_MACHINE" ~flag:"machine" (fun t ->
        atom (find_machine t) (fun t machine -> { t with machine }) t);
    setting "seed" ~env:"GPP_SEED" ~flag:"seed" (atom int64_of_atom (fun t seed -> { t with seed }));
    setting "outlier-probability" ~env:"GPP_OUTLIER_PROBABILITY"
      (atom probability_of_atom (fun t outlier_probability -> { t with outlier_probability }));
    setting "runs" ~env:"GPP_RUNS" ~flag:"runs"
      (atom pos_int_of_atom (fun t n -> { t with runs = Some n }));
    setting "iterations" ~env:"GPP_ITERATIONS" ~flag:"iterations"
      (atom pos_int_of_atom (fun t n -> { t with iterations = Some n }));
    setting "jobs" ~env:"GPP_JOBS" ~flag:"jobs" (atom pos_int_of_atom (fun t jobs -> { t with jobs }));
    setting "use-cache" (atom bool_of_atom (fun t b -> { t with use_cache = Some b }));
    setting "lint" (atom bool_of_atom (fun t lint -> { t with lint }));
    setting "trace" ~env:"GPP_TRACE" ~flag:"trace" (atom Result.ok (fun t f -> { t with trace = Some f }));
    setting "verbose" ~env:"GPP_VERBOSE" ~flag:"verbose"
      (atom bool_of_atom (fun t verbose -> { t with verbose }));
    setting "cache.enabled" ~env:"GPP_NO_CACHE" ~env_negated:true ~flag:"no-cache"
      (atom bool_of_atom (fun t cache_enabled -> { t with cache_enabled }));
    setting "cache.dir" ~env:"GPP_CACHE_DIR" ~flag:"cache-dir"
      (atom Result.ok (fun t d -> { t with cache_dir = Some d }));
    setting "serve.listen" ~env:"GPP_LISTEN" ~flag:"listen"
      (atom Result.ok (fun t listen -> { t with listen }));
    setting "serve.flush-every" ~env:"GPP_FLUSH_EVERY" ~flag:"flush-every"
      (atom pos_int_of_atom (fun t flush_every -> { t with flush_every }));
    setting "predict.stages" ~env:"GPP_PREDICT" ~flag:"predict"
      (atom Predictor.of_string (fun t predictor -> { t with predictor }));
    setting "predict.lambda"
      (atom nonneg_float_of_atom (fun t predict_lambda -> { t with predict_lambda }));
    setting "policy.plan" ~env:"GPP_TRANSFER_PLAN" ~flag:"transfer-plan"
      (policy (atom Analyzer.plan_policy_of_name (fun p plan -> { p with Analyzer.plan })));
    setting "policy.sparse-exact"
      (policy (atom bool_of_atom (fun p sparse_exact -> { p with Analyzer.sparse_exact })));
    setting "protocol.small-bytes"
      (protocol (atom nonneg_int_of_atom (fun p small_bytes -> { p with Calibrate.small_bytes })));
    setting "protocol.large-bytes"
      (protocol (atom nonneg_int_of_atom (fun p large_bytes -> { p with Calibrate.large_bytes })));
    setting "protocol.runs"
      (protocol (atom pos_int_of_atom (fun p runs -> { p with Calibrate.runs })));
    setting "analytic.achieved-bw-fraction"
      (analytic
         (atom pos_float_of_atom (fun p achieved_bw_fraction ->
              { p with Analytic.achieved_bw_fraction })));
    setting "analytic.sync-cost-cycles"
      (analytic
         (atom nonneg_float_of_atom (fun p sync_cost_cycles -> { p with Analytic.sync_cost_cycles })));
    setting "cpu.ilp-efficiency"
      (cpu (atom pos_float_of_atom (fun p ilp_efficiency -> { p with Timing.ilp_efficiency })));
    setting "cpu.heavy-op-cycles"
      (cpu (atom nonneg_float_of_atom (fun p heavy_op_cycles -> { p with Timing.heavy_op_cycles })));
    setting "cpu.streaming-bw-fraction"
      (cpu
         (atom pos_float_of_atom (fun p f ->
              { p with Timing.streaming_bw_fraction_override = Some f })));
    setting "sim.streaming-efficiency"
      (sim
         (atom pos_float_of_atom (fun c streaming_efficiency -> { c with Sim.streaming_efficiency })));
    setting "sim.scattered-efficiency"
      (sim
         (atom pos_float_of_atom (fun c scattered_efficiency -> { c with Sim.scattered_efficiency })));
    setting "sim.latency-jitter"
      (sim (atom nonneg_float_of_atom (fun c latency_jitter -> { c with Sim.latency_jitter })));
    setting "sim.block-dispatch-cycles"
      (sim
         (atom nonneg_float_of_atom (fun c block_dispatch_cycles ->
              { c with Sim.block_dispatch_cycles })));
    setting "sim.drain-cycles"
      (sim (atom nonneg_float_of_atom (fun c drain_cycles -> { c with Sim.drain_cycles })));
    setting "sim.noise-sigma"
      (sim (atom nonneg_float_of_atom (fun c noise_sigma -> { c with Sim.noise_sigma })));
    setting "sim.max-simulated-blocks"
      (sim (atom int_of_atom (fun c max_simulated_blocks -> { c with Sim.max_simulated_blocks })));
    setting "space.block-sizes" (space (int_list (fun s block_sizes -> { s with Explore.block_sizes })));
    setting "space.unroll-factors"
      (space (int_list (fun s unroll_factors -> { s with Explore.unroll_factors })));
    setting "space.vector-widths"
      (space (int_list (fun s vector_widths -> { s with Explore.vector_widths })));
    setting "space.allow-tiling"
      (space (atom bool_of_atom (fun s allow_tiling -> { s with Explore.allow_tiling })));
  ]

let find_setting key = List.find_opt (fun s -> String.equal s.key key) settings

(* --- the layers -------------------------------------------------------- *)

(* Apply one layer's [(key, value)] entries in table order.  A failing
   value is a config error whose [source] and message prefix [label]
   name where it came from. *)
let apply_layer ~source ?(label = source) t entries =
  match List.find_opt (fun (key, _) -> find_setting key = None) entries with
  | Some (key, _) -> Error (Error.config (Printf.sprintf "unknown setting %S" key))
  | None ->
      let in_table_order =
        List.concat_map
          (fun s -> List.filter_map (fun (key, v) -> if key = s.key then Some (s, v) else None) entries)
          settings
      in
      List.fold_left
        (fun acc (s, v) ->
          let* t = acc in
          Result.map_error
            (fun m -> Error.config ~source:(source s) (Printf.sprintf "%s: %s" (label s) m))
            (s.set t v))
        (Ok t) in_table_order

let set t ~source key raw = apply_layer ~source:(fun _ -> source) t [ (key, Sexp.Atom raw) ]

let each t ~source key raws = map_ok (set t ~source key) raws

(* The file is one list of (key value) pairs; a group key nests another
   pair list whose keys become [group.key]. *)
let file_entries sexp =
  let pairs context = function
    | Sexp.Atom _ -> Error (Printf.sprintf "%s: expected a list of (key value) pairs" context)
    | Sexp.List items ->
        map_ok
          (function
            | Sexp.List [ Sexp.Atom key; v ] -> Ok (key, v)
            | s -> Error (Printf.sprintf "%s: expected (key value), got %s" context (Sexp.to_string s)))
          items
  in
  let known ~unknown (key, v) = if find_setting key = None then Error unknown else Ok (key, v) in
  let is_group key = List.exists (fun s -> String.starts_with ~prefix:(key ^ ".") s.key) settings in
  let* top = pairs "config" sexp in
  let* entries =
    map_ok
      (fun (key, v) ->
        if is_group key then
          let* inner = pairs key v in
          map_ok
            (fun (k, v) -> known ~unknown:(Printf.sprintf "%s: unknown key %S" key k) (key ^ "." ^ k, v))
            inner
        else Result.map (fun e -> [ e ]) (known ~unknown:(Printf.sprintf "unknown key %S" key) (key, v)))
      top
  in
  Ok (List.concat entries)

let apply_file (t : t) ~path =
  match Result.bind (Sexp.parse_file path) file_entries with
  | Error m -> Error (Error.config ~source:path (Printf.sprintf "%s: %s" path m))
  | Ok entries ->
      apply_layer ~source:(fun _ -> path) ~label:(fun s -> path ^ ": " ^ s.key) t entries

(* GPP_NO_CACHE reads the other way round from cache.enabled; a value
   that is no boolean passes through for the setting to reject. *)
let negate raw = match bool_of_atom raw with Ok b -> string_of_bool (not b) | Error _ -> raw

let apply_env ?(getenv = Sys.getenv_opt) (t : t) =
  let entries =
    List.filter_map
      (fun s ->
        Option.bind s.env getenv
        |> Option.map (fun raw ->
               (s.key, Sexp.Atom (if s.env_negated then negate raw else raw))))
      settings
  in
  apply_layer ~source:(fun s -> Option.value s.env ~default:s.key) t entries

let apply_flags (t : t) flags =
  apply_layer
    ~source:(fun s -> match s.flag with Some f -> "--" ^ f | None -> s.key)
    t
    (List.map (fun (key, raw) -> (key, Sexp.Atom raw)) flags)

(* Cross-field checks on the fully resolved value, so a bad combination
   is rejected whichever layers supplied its parts.  Pool.run and
   Calibrate.calibrate would raise Invalid_argument on the same values;
   user input must surface as a structured config error (exit 2). *)
let validate (t : t) =
  let bad fmt = Printf.ksprintf (fun m -> Error (Error.config m)) fmt in
  if t.jobs > Pool.max_jobs then bad "jobs = %d out of range (expected 1 .. %d)" t.jobs Pool.max_jobs
  else
    match t.protocol with
    | Some p when p.small_bytes >= p.large_bytes ->
        bad "protocol: small-bytes = %d must be below large-bytes = %d" p.small_bytes p.large_bytes
    | _ -> Ok t

let resolve ?getenv ?file ?(flags = []) () =
  let* t = match file with None -> Ok default | Some path -> apply_file default ~path in
  let* t = apply_env ?getenv t in
  let* t = apply_flags t flags in
  validate t
