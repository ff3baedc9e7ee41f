(** Typed scenario configuration with layered resolution.

    One {!t} record captures everything a pipeline run depends on — the
    target machine, the noise seeds, the simulator/CPU/analytic model
    parameters, the transfer policy, and the cache/observability
    switches.  {!resolve} builds it by layering, lowest precedence
    first:

    {v library defaults < sexp config file (--config FILE)
       < GPP_* environment variables < command-line flags v}

    Every setting is declared once, in {!settings}: its key, its
    [GPP_*] variable and flag if it has them, and one function that
    parses a value and sets it.  Each layer is a fold over that table,
    and [grophecy serve] applies request parameters through it too.

    The defaults reproduce the historical
    [Grophecy.init machine] behaviour bit-for-bit, so a default-resolved
    config is byte-identical to every pre-engine run. *)

type t = {
  machine : Gpp_arch.Machine.t;
  machines : Gpp_arch.Machine.t list;
      (** The resolved machine catalog: the builtin
          {!Gpp_arch.Machine.catalog} merged with descriptors from the
          config file's [(machines ...)] group, [GPP_MACHINES], and
          [--machines] (later layers replace matching ids).  Machine
          names everywhere — [machine]/[-m], the batch axis, crossval —
          resolve against this list. *)
  seed : int64;  (** Seed for the simulated hardware's noise streams. *)
  outlier_probability : float;
      (** Slow-transfer outlier rate of the application link (§V-A). *)
  protocol : Gpp_pcie.Calibrate.protocol option;
      (** Calibration protocol override (sizes and runs). *)
  runs : int option;  (** Runs per measurement mean (default 10). *)
  iterations : int option;
      (** When set, rescale the program's [Repeat] nodes. *)
  use_cache : bool option;
      (** Per-call memo override handed to the core pipeline; [None]
          defers to the global switch. *)
  analytic : Gpp_model.Analytic.params option;
  space : Gpp_transform.Explore.space option;
  policy : Gpp_dataflow.Analyzer.policy option;
  sim : Gpp_gpusim.Gpu_sim.config option;
  cpu : Gpp_cpu.Timing.params option;
  predictor : Gpp_predict.Predictor.t;
      (** The predictor stack projections price through
          ([--predict]/[GPP_PREDICT]/config [(predict (stages ...))];
          default {!Gpp_predict.Predictor.analytic}, byte-identical to
          the pre-predictor pipeline). *)
  predict_lambda : float;
      (** Ridge regularization strength for the Learned stage's
          correction fit (config [(predict (lambda ...))], default
          {!Gpp_predict.Correction.default_lambda}). *)
  lint : bool;  (** Run the Lint stage (diagnostics to stderr). *)
  jobs : int;
      (** Worker domains for the batch runner ([--jobs]/[GPP_JOBS],
          default 1 = sequential).  Output is byte-identical at any
          value; see {!Batch.run}. *)
  cache_enabled : bool;  (** Process-wide cache switch ([--no-cache]). *)
  cache_dir : string option;  (** Persistent-store directory override. *)
  trace : string option;  (** Chrome-trace output file ([--trace]). *)
  verbose : bool;
  listen : string;
      (** [grophecy serve] bind address: [HOST:PORT] (port [0] = pick a
          free one) or [unix:PATH] ([--listen]/[GPP_LISTEN], default
          [127.0.0.1:8080]). *)
  flush_every : int;
      (** [grophecy serve]: flush the persistent cache tier every N
          requests ([--flush-every]/[GPP_FLUSH_EVERY], default 64), so a
          killed server loses at most the last N requests' worth of
          memoized work. *)
}

val default : t

val core_params : t -> Gpp_core.Grophecy.params
(** Project the scenario down to the core facade's per-call params. *)

val machine_of_name : string -> (Gpp_arch.Machine.t, string) result
(** Builtin-catalog lookup by id, for callers without a resolved
    scenario (the simple CLI commands).  Scenario layers use
    {!find_machine} so file-loaded machines resolve too. *)

val find_machine : t -> string -> (Gpp_arch.Machine.t, string) result
(** Lookup in the scenario's resolved [machines] catalog. *)

(** {1 The settings table} *)

type setting = {
  key : string;
      (** The config-file key, dotted for a group field: [seed],
          [sim.noise-sigma], [policy.plan], [serve.flush-every]. *)
  env : string option;  (** Its [GPP_*] variable, if any. *)
  env_negated : bool;
      (** The variable reads the other way round from the key: a true
          [GPP_NO_CACHE] sets [cache.enabled] to false. *)
  flag : string option;
      (** Its command-line flag without the dashes, if any; errors from
          the flag layer name it. *)
  set : t -> Sexp.t -> (t, string) result;
      (** Parse a value and set it.  Environment, flag and HTTP strings
          arrive as atoms; only [machines] (inline descriptors) and the
          [space] integer lists take a list. *)
}

val settings : setting list
(** Every setting, in the order a layer applies them: [machines] first,
    so a layer's catalog merges before its [machine] name resolves. *)

(** {1 Layers} *)

val apply_file : t -> path:string -> (t, Error.t) result
(** Layer a sexp scenario file onto [t].  The file is one list of
    [(key value)] pairs; a group ([analytic], [cache], [cpu], [policy],
    [predict], [protocol], [serve], [sim], [space]) nests another pair
    list and starts from the library defaults, so a partial group
    overrides only the named fields.  [(machines (<descriptor> ...))]
    (see {!Machines}) merges into the catalog; [(machines FILE)] loads a
    catalog file, as [GPP_MACHINES] does.  Unknown keys, malformed
    values and sexps, and unreadable files are {!Error.Config} naming
    the file. *)

val apply_env : ?getenv:(string -> string option) -> t -> (t, Error.t) result
(** Layer the [GPP_*] environment variables onto [t].  [getenv] is
    injectable for tests.  Malformed values are {!Error.Config} naming
    the variable. *)

val apply_flags : t -> (string * string) list -> (t, Error.t) result
(** The flag layer: the [(key, raw value)] pair of each flag given.
    Malformed values are {!Error.Config} naming the flag. *)

val set : t -> source:string -> string -> string -> (t, Error.t) result
(** [set t ~source key raw] applies one setting from its string form,
    as the flag layer does; errors name [source].  For values outside
    the layers, such as [serve]'s request parameters. *)

val each : t -> source:string -> string -> string list -> (t list, Error.t) result
(** [t] with setting [key] set to each value in turn: a matrix axis
    (machines, iteration counts) parsed and checked like any layer. *)

val resolve :
  ?getenv:(string -> string option) ->
  ?file:string ->
  ?flags:(string * string) list ->
  unit ->
  (t, Error.t) result
(** Full layered resolution: defaults, then [file], then environment,
    then [flags], then the cross-field checks ([jobs] within
    {!Pool.max_jobs}, protocol [small-bytes] below [large-bytes]).  A
    malformed or out-of-range value is an {!Error.Config} (exit 2)
    whichever layer supplied it. *)
