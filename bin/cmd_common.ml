(* Flags, converters, and the scenario-resolution preamble shared by
   every grophecy subcommand.  The pipeline commands resolve a layered
   Gpp_engine.Config scenario (defaults < --config file < GPP_* env <
   flags) and install its process-wide effects; the simple commands
   (calibrate, list, lint, trace, predict-transfer) keep their concrete
   typed flags and touch no cache or trace state they did not before. *)

open Cmdliner
module Config = Gpp_engine.Config
module Error = Gpp_engine.Error

(* A Config setting's flag names: the table's long name, then
   [aliases]. *)
let names key aliases =
  match List.find_opt (fun (s : Config.setting) -> String.equal s.key key) Config.settings with
  | Some { flag = Some flag; _ } -> flag :: aliases
  | _ -> invalid_arg (Printf.sprintf "Cmd_common.names: setting %S has no flag" key)

(* The flag layer of the pipeline commands.  An override flag reaches
   the scenario, only when given, as the (key, raw value) pair of its
   Config setting, and is parsed there like a config-file or GPP_*
   value: a malformed value exits 2 naming the flag. *)
let override key arg = Term.(const (Option.map (fun raw -> (key, raw))) $ arg)

let setting_opt ?(aliases = []) ?docv key ~doc =
  override key Arg.(value & opt (some string) None & info (names key aliases) ?docv ~doc)

(* A boolean flag that, when given, sets its setting to [raw]. *)
let switch key raw arg = override key Term.(const (fun on -> if on then Some raw else None) $ arg)

let verbose_arg =
  let doc = "Print pipeline progress (calibration, chosen transformations, measurements)." in
  Arg.(value & flag & info (names "verbose" [ "v" ]) ~doc)

let cache_dir_arg =
  let doc =
    "Directory of the persistent projection cache.  Defaults to $(b,GPP_CACHE_DIR), then \
     $(b,\\$XDG_CACHE_HOME/grophecy), then $(b,~/.cache/grophecy)."
  in
  Arg.(value & opt (some string) None & info (names "cache.dir" []) ~docv:"DIR" ~doc)

let no_cache =
  let doc =
    "Bypass the projection cache entirely (both the in-memory tables and the on-disk store): \
     recompute every transformation search and kernel simulation instead of reusing memoized \
     results.  Output is bit-identical either way."
  in
  switch "cache.enabled" "false" Arg.(value & flag & info (names "cache.enabled" []) ~doc)

let trace =
  setting_opt "trace" ~docv:"FILE"
    ~doc:
      "Enable observability and stream a Chrome trace-event JSON timeline of the run to $(docv) \
       (open it in chrome://tracing or https://ui.perfetto.dev).  A per-phase summary table is \
       printed to stderr when the run ends.  Without this flag the instrumentation is a no-op \
       and output is byte-identical."

let config_file_arg =
  let doc =
    "Read scenario settings from a sexp configuration file.  Settings layer as: library defaults \
     < $(docv) < $(b,GPP_*) environment variables < command-line flags."
  in
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc)

let machine_conv =
  let parse s = match Config.machine_of_name s with Ok m -> Ok m | Error e -> Error (`Msg e) in
  let print ppf (m : Gpp_arch.Machine.t) = Format.fprintf ppf "%s" m.name in
  Arg.conv (parse, print)

let machine_doc =
  "Target machine by catalog id: the paper-era presets ($(b,argonne), $(b,section2b), \
   $(b,gt200), $(b,modern)) or any zoo machine ($(b,kepler) .. $(b,hopper)); run \
   $(b,grophecy list) for the full catalog."

(* Pipeline commands: the name resolves against the scenario's final
   catalog, so it can name a machine that --machines (or the config
   file, or GPP_MACHINES) defined. *)
let machine = setting_opt "machine" ~aliases:[ "m" ] ~docv:"NAME" ~doc:machine_doc

let machines_file_arg =
  let doc =
    "Merge a machine-descriptor catalog file over the builtin catalog (and over the config \
     file's and $(b,GPP_MACHINES)'s machines).  Descriptors with a known id replace that \
     machine; new ids extend the catalog."
  in
  Arg.(value & opt (some string) None & info (names "machines" []) ~docv:"FILE" ~doc)

let machines = override "machines" machines_file_arg

(* Simple commands keep their concrete defaults (no config/env layers). *)
let machine_arg =
  Arg.(value & opt machine_conv Gpp_arch.Machine.argonne_node & info [ "machine"; "m" ] ~doc:machine_doc)

let seed_doc = "Seed for the simulated hardware's noise streams."

let seed = setting_opt "seed" ~doc:seed_doc

let seed_arg = Arg.(value & opt int64 0x1B0A_2013_6CA1_55AAL & info [ "seed" ] ~doc:seed_doc)

let workload_arg =
  let doc = "Workload instance as $(b,app/size), e.g. $(b,cfd/97K) or $(b,hotspot/1024 x 1024)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let iterations =
  setting_opt "iterations" ~aliases:[ "n" ] ~doc:"Iteration count for iterative workloads (default 1)."

let runs = setting_opt "runs" ~doc:"Runs to average per measurement (the paper uses 10)."

let transfer_plan =
  setting_opt "policy.plan" ~docv:"PLAN"
    ~doc:
      "Transfer-plan policy: $(b,conservative) (the paper's analysis, the default) or \
       $(b,minimal) (price only statically live references — an ablation lower bound).  \
       Layers under $(b,GPP_TRANSFER_PLAN) and the config file's $(b,policy (plan ...)) key."

let predict =
  setting_opt "predict.stages" ~docv:"STACK"
    ~doc:
      "Predictor stack for transfer pricing: a comma-separated list of stages among \
       $(b,analytic) (the paper's calibrated projection, the default), $(b,scaled) (rescale the \
       calibrated (alpha, beta) by the source and target machines' spec'd setup/bandwidth \
       ratios), and $(b,learned) (additionally fit a ridge correction of the projected total \
       against simulated measurements, leave-one-workload-out).  Layers under $(b,GPP_PREDICT) \
       and the config file's $(b,(predict (stages ...))) key.  Unknown stage names exit 2 with a \
       suggestion."

let session_of machine seed = Gpp_core.Grophecy.init ~seed machine

(* Resolve a list of machine names against a resolved scenario's
   catalog, keeping flag order.  Shared by the matrix commands (batch,
   crossval). *)
let resolve_machines (c : Config.t) names =
  Result.map
    (List.map (fun (c : Config.t) -> c.machine))
    (Config.each c ~source:"--machine" "machine" names)

(* Print a structured error the way the CLI always has — the bare
   message on stderr — and map it to the documented exit-code space. *)
let fail e =
  prerr_endline (Error.message e);
  Error.exit_code e

(* The resolved scenario of a pipeline command taking the override
   [flags], plus the cache, trace and verbosity flags they all share;
   its process-wide effects are installed once it resolves. *)
let scenario flags =
  let given =
    List.fold_right
      (fun flag rest -> Term.(const (fun f rest -> Option.to_list f @ rest) $ flag $ rest))
      (flags
      @ [ no_cache; override "cache.dir" cache_dir_arg; trace; switch "verbose" "true" verbose_arg ])
      (Term.const [])
  in
  let resolve file flags =
    match Config.resolve ?file ~flags () with
    | Error e -> Error e
    | Ok c ->
        Gpp_engine.Runtime.install c;
        Ok c
  in
  Term.(const resolve $ config_file_arg $ given)
