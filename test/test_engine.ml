(* Tests for Gpp_engine: sexp parsing, layered scenario configuration,
   structured errors and their exit-code mapping, workload resolution,
   the staged pipeline (including bit-parity with the core facade), and
   the batch runner. *)

module Engine = Gpp_engine
module Config = Gpp_engine.Config
module Error = Gpp_engine.Error
module Sexp = Gpp_engine.Sexp
module Grophecy = Gpp_core.Grophecy

let write_temp ~suffix content =
  let path = Filename.temp_file "gpp-engine-test" suffix in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  path

let getenv_of assoc name = List.assoc_opt name assoc

(* --- sexp ------------------------------------------------------------ *)

let test_sexp_parse () =
  (match Sexp.parse_string "(a (b c) \"d e\")" with
  | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ]; Sexp.Atom "d e" ])
    -> ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Comments and blank lines are skipped. *)
  (match Sexp.parse_string "; header\n(x 1) ; trailing\n" with
  | Ok (Sexp.List [ Sexp.Atom "x"; Sexp.Atom "1" ]) -> ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Errors carry a line number. *)
  match Sexp.parse_string "(a\n(b" with
  | Ok s -> Alcotest.failf "expected an error, got %s" (Sexp.to_string s)
  | Error e -> Helpers.check_contains "line number" ~needle:"line" e

let test_sexp_roundtrip () =
  let s =
    Sexp.List [ Sexp.Atom "k"; Sexp.List [ Sexp.Atom "with space"; Sexp.Atom "plain" ] ]
  in
  match Sexp.parse_string (Sexp.to_string s) with
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
  | Error e -> Alcotest.failf "reparse failed: %s" e

(* --- errors ---------------------------------------------------------- *)

let test_error_exit_codes () =
  let usage_class =
    [ Error.parse "p"; Error.config "c"; Error.usage "u"; Error.parse ~source:"k" "p" ]
  in
  List.iter (fun e -> Alcotest.(check int) (Error.category e) 2 (Error.exit_code e)) usage_class;
  let failure_class =
    [
      Error.projection "x";
      Error.projection ~kernel:"k" "x";
      Error.simulation "x";
      Error.calibration "x";
      Error.cache "x";
      Error.io "x";
      Error.Lint { program = "p"; errors = 1; warnings = 0 };
    ]
  in
  List.iter (fun e -> Alcotest.(check int) (Error.category e) 1 (Error.exit_code e)) failure_class

let test_error_message_bare () =
  (* The CLI prints [message] verbatim, so payloads must carry the full
     text with no category prefix. *)
  Alcotest.(check string) "bare" "it broke" (Error.message (Error.projection "it broke"));
  Alcotest.(check string)
    "parse bare" "unknown workload" (Error.message (Error.parse ~source:"k" "unknown workload"))

(* --- config layering ------------------------------------------------- *)

let test_config_defaults_mirror_init () =
  let c = Config.default in
  Alcotest.(check string) "machine" "argonne"
    (if c.Config.machine == Gpp_arch.Machine.argonne_node then "argonne" else "other");
  Alcotest.(check int64) "seed" 0x1B0A_2013_6CA1_55AAL c.Config.seed;
  Helpers.close "outlier" 0.05 c.Config.outlier_probability;
  Alcotest.(check bool) "cache on" true c.Config.cache_enabled;
  Alcotest.(check bool) "lint off" false c.Config.lint;
  (* The per-call projection of a default scenario is default_params. *)
  Alcotest.(check bool) "core params" true (Config.core_params c = Grophecy.default_params)

let test_config_file_layer () =
  let path =
    write_temp ~suffix:".sexp"
      "; scenario\n\
       ((machine gt200)\n\
      \ (seed 99)\n\
      \ (runs 5)\n\
      \ (sim ((noise-sigma 0.25)))\n\
      \ (space ((block-sizes (64 128)) (allow-tiling false)))\n\
      \ (cache ((enabled false) (dir /tmp/gpp-test-cache))))"
  in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let c = Helpers.check_core "apply_file" (Config.apply_file Config.default ~path) in
  Alcotest.(check bool) "machine" true (c.Config.machine == Gpp_arch.Machine.gt200_node);
  Alcotest.(check int64) "seed" 99L c.Config.seed;
  Alcotest.(check (option int)) "runs" (Some 5) c.Config.runs;
  (match c.Config.sim with
  | Some sim ->
      Helpers.close "noise sigma" 0.25 sim.Gpp_gpusim.Gpu_sim.noise_sigma;
      (* Partial groups keep the library defaults for unnamed fields. *)
      Helpers.close "streaming untouched"
        Gpp_gpusim.Gpu_sim.default_config.Gpp_gpusim.Gpu_sim.streaming_efficiency
        sim.Gpp_gpusim.Gpu_sim.streaming_efficiency
  | None -> Alcotest.fail "sim group not applied");
  (match c.Config.space with
  | Some space ->
      Alcotest.(check (list int)) "block sizes" [ 64; 128 ] space.Gpp_transform.Explore.block_sizes;
      Alcotest.(check bool) "tiling" false space.Gpp_transform.Explore.allow_tiling
  | None -> Alcotest.fail "space group not applied");
  Alcotest.(check bool) "cache disabled" false c.Config.cache_enabled;
  Alcotest.(check (option string)) "cache dir" (Some "/tmp/gpp-test-cache") c.Config.cache_dir

let expect_config_error what = function
  | Ok (_ : Config.t) -> Alcotest.failf "%s: expected a config error" what
  | Error (Error.Config { source; message }) ->
      Alcotest.(check bool) (what ^ ": source set") true (source <> None);
      message
  | Error e -> Alcotest.failf "%s: expected Config error, got %s" what (Error.category e)

let test_config_file_bad_sexp () =
  let path = write_temp ~suffix:".sexp" "((machine argonne" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let msg = expect_config_error "bad sexp" (Config.apply_file Config.default ~path) in
  Helpers.check_contains "names the file" ~needle:(Filename.basename path) msg

let test_config_file_unknown_key () =
  let path = write_temp ~suffix:".sexp" "((machina argonne))" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let msg = expect_config_error "unknown key" (Config.apply_file Config.default ~path) in
  Helpers.check_contains "names the key" ~needle:{|"machina"|} msg;
  let path2 = write_temp ~suffix:".sexp" "((sim ((noise 1))))" in
  Fun.protect ~finally:(fun () -> Sys.remove path2) @@ fun () ->
  let msg2 =
    expect_config_error "unknown group key" (Config.apply_file Config.default ~path:path2)
  in
  Helpers.check_contains "names the group" ~needle:"sim" msg2

let test_config_env_layer () =
  let env =
    getenv_of
      [ ("GPP_MACHINE", "modern"); ("GPP_SEED", "7"); ("GPP_NO_CACHE", "1"); ("GPP_RUNS", "3") ]
  in
  let c = Helpers.check_core "apply_env" (Config.apply_env ~getenv:env Config.default) in
  Alcotest.(check bool) "machine" true (c.Config.machine == Gpp_arch.Machine.modern_node);
  Alcotest.(check int64) "seed" 7L c.Config.seed;
  Alcotest.(check bool) "no cache" false c.Config.cache_enabled;
  Alcotest.(check (option int)) "runs" (Some 3) c.Config.runs;
  (* Malformed values name the variable. *)
  let bad = Config.apply_env ~getenv:(getenv_of [ ("GPP_SEED", "banana") ]) Config.default in
  let msg = expect_config_error "bad env" bad in
  Helpers.check_contains "names the variable" ~needle:"GPP_SEED" msg

let test_config_precedence () =
  (* defaults < file < env < flags, with several fields from several
     layers at once: each keeps the value of the highest layer that
     names it. *)
  let path = write_temp ~suffix:".sexp" "((machine gt200) (seed 1) (runs 2))" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let getenv = getenv_of [ ("GPP_SEED", "22"); ("GPP_ITERATIONS", "4") ] in
  let c =
    Helpers.check_core "resolve" (Config.resolve ~getenv ~file:path ~flags:[ ("seed", "333") ] ())
  in
  (* file beats defaults where neither env nor flags speak *)
  Alcotest.(check bool) "machine from file" true (c.Config.machine == Gpp_arch.Machine.gt200_node);
  Alcotest.(check (option int)) "runs from file" (Some 2) c.Config.runs;
  (* env beats file *)
  Alcotest.(check (option int)) "iterations from env" (Some 4) c.Config.iterations;
  (* flags beat env *)
  Alcotest.(check int64) "seed from flags" 333L c.Config.seed

let test_config_transfer_plan_layers () =
  let module Analyzer = Gpp_dataflow.Analyzer in
  let plan_of (c : Config.t) =
    match c.Config.policy with
    | Some p -> p.Analyzer.plan
    | None -> Alcotest.fail "policy should be set"
  in
  (* Environment layer. *)
  let c =
    Helpers.check_core "apply_env"
      (Config.apply_env ~getenv:(getenv_of [ ("GPP_TRANSFER_PLAN", "minimal") ]) Config.default)
  in
  Alcotest.(check bool) "env sets minimal" true (plan_of c = Analyzer.Minimal);
  (* Malformed values name the variable. *)
  let bad =
    Config.apply_env ~getenv:(getenv_of [ ("GPP_TRANSFER_PLAN", "bogus") ]) Config.default
  in
  Helpers.check_contains "names the variable" ~needle:"GPP_TRANSFER_PLAN"
    (expect_config_error "bad plan" bad);
  (* Config-file layer: the nested policy group. *)
  let path = write_temp ~suffix:".sexp" "((policy ((plan minimal))))" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let from_file = Helpers.check_core "apply_file" (Config.apply_file Config.default ~path) in
  Alcotest.(check bool) "file sets minimal" true (plan_of from_file = Analyzer.Minimal);
  (* The --transfer-plan flag beats the env. *)
  let resolved =
    Helpers.check_core "resolve"
      (Config.resolve
         ~getenv:(getenv_of [ ("GPP_TRANSFER_PLAN", "minimal") ])
         ~flags:[ ("policy.plan", "conservative") ]
         ())
  in
  Alcotest.(check bool) "flag beats env" true (plan_of resolved = Analyzer.Conservative)

(* Three catalog files that each define machine [lab] differently, so
   each layer's catalog replaces the one below it. *)
let catalog_files () =
  List.map
    (fun base ->
      write_temp ~suffix:".sexp" (Printf.sprintf "(machines ((id lab) (base %s)))" base))
    [ "kepler"; "volta-nvlink"; "hopper" ]

(* Per setting: the values the file, environment and flag layers give
   it (sexp text; each differs from the layer below and the first from
   the default), and one malformed value. *)
let layer_samples catalogs =
  [
    ("machines", (catalogs, "/nonexistent/catalog.sexp"));
    ("machine", ([ "gt200"; "modern"; "kepler" ], "cray-1"));
    ("seed", ([ "1"; "22"; "333" ], "banana"));
    ("outlier-probability", ([ "0.1"; "0.2" ], "7"));
    ("runs", ([ "2"; "3"; "4" ], "0"));
    ("iterations", ([ "2"; "4"; "5" ], "0"));
    ("jobs", ([ "2"; "3"; "4" ], "0"));
    ("use-cache", ([ "false" ], "maybe"));
    ("lint", ([ "true" ], "maybe"));
    ("trace", ([ "a.json"; "b.json"; "c.json" ], "(a b)"));
    ("verbose", ([ "true"; "false"; "true" ], "maybe"));
    (* GPP_NO_CACHE=0 turns the cache back on; --no-cache turns it off. *)
    ("cache.enabled", ([ "false"; "0"; "false" ], "maybe"));
    ("cache.dir", ([ "d1"; "d2"; "d3" ], "(a b)"));
    ("serve.listen", ([ "h:1"; "h:2"; "h:3" ], "(a b)"));
    ("serve.flush-every", ([ "2"; "3"; "4" ], "0"));
    ("predict.stages", ([ "scaled"; "learned"; "scaled,learned" ], "nope"));
    ("predict.lambda", ([ "2.5" ], "-1"));
    ("policy.plan", ([ "minimal"; "conservative"; "minimal" ], "bogus"));
    ("policy.sparse-exact", ([ "true" ], "maybe"));
    ("protocol.small-bytes", ([ "2" ], "-5"));
    ("protocol.large-bytes", ([ "1024" ], "x"));
    ("protocol.runs", ([ "3" ], "0"));
    ("analytic.achieved-bw-fraction", ([ "0.5" ], "0"));
    ("analytic.sync-cost-cycles", ([ "10" ], "-5"));
    ("cpu.ilp-efficiency", ([ "0.5" ], "0"));
    ("cpu.heavy-op-cycles", ([ "3" ], "-5"));
    ("cpu.streaming-bw-fraction", ([ "0.4" ], "-1"));
    ("sim.streaming-efficiency", ([ "0.5" ], "0"));
    ("sim.scattered-efficiency", ([ "0.5" ], "x"));
    ("sim.latency-jitter", ([ "0.1" ], "-1"));
    ("sim.block-dispatch-cycles", ([ "10" ], "-100"));
    ("sim.drain-cycles", ([ "10" ], "-100"));
    ("sim.noise-sigma", ([ "0.25" ], "-1"));
    ("sim.max-simulated-blocks", ([ "7" ], "1.5"));
    ("space.block-sizes", ([ "(64 128)" ], "(0)"));
    ("space.unroll-factors", ([ "(1 2)" ], "(1 x)"));
    ("space.vector-widths", ([ "(1 2)" ], "x"));
    ("space.allow-tiling", ([ "false" ], "maybe"));
  ]

(* A one-setting scenario file; a dotted key nests in its group. *)
let with_file key text f =
  let body =
    match String.index_opt key '.' with
    | Some i ->
        Printf.sprintf "((%s ((%s %s))))" (String.sub key 0 i)
          (String.sub key (i + 1) (String.length key - i - 1))
          text
    | None -> Printf.sprintf "((%s %s))" key text
  in
  let path = write_temp ~suffix:".sexp" body in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Every entry of the settings table, through every layer it has: each
   layer beats the one below (file < env < flag), and a malformed value
   is a config error naming its source (path, variable or flag). *)
let test_config_layering () =
  let catalogs = catalog_files () in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove catalogs) @@ fun () ->
  let samples = layer_samples catalogs in
  List.iter
    (fun (key, _) ->
      if not (List.exists (fun (s : Config.setting) -> s.key = key) Config.settings) then
        Alcotest.failf "sample for %S, which is no setting" key)
    samples;
  List.iter
    (fun (s : Config.setting) ->
      let values, bad =
        match List.assoc_opt s.key samples with
        | Some sample -> sample
        | None -> Alcotest.failf "setting %S has no layer samples" s.key
      in
      let resolve ?file ?env ?flag () =
        let getenv var = if Some var = s.env then env else None in
        let flags = Option.to_list (Option.map (fun v -> (s.key, v)) flag) in
        match file with
        | None -> Config.resolve ~getenv ~flags ()
        | Some text -> with_file s.key text (fun path -> Config.resolve ~getenv ~file:path ~flags ())
      in
      let ok what r = Helpers.check_core (s.key ^ ": " ^ what) r in
      let file = List.nth values 0 in
      let below = ref (ok "file" (resolve ~file ())) in
      Alcotest.(check bool) (s.key ^ ": file beats the default") true (!below <> Config.default);
      let beats name ~stack ~alone =
        let stacked = ok (name ^ " over the lower layers") stack in
        Alcotest.(check bool) (s.key ^ ": " ^ name ^ " beats the layer below") true (stacked <> !below);
        Alcotest.(check bool) (s.key ^ ": " ^ name ^ " alone agrees") true (stacked = ok name alone);
        below := stacked
      in
      let env = Option.map (fun _ -> List.nth values 1) s.env in
      Option.iter (fun env -> beats "env" ~stack:(resolve ~file ~env ()) ~alone:(resolve ~env ())) env;
      Option.iter
        (fun _ ->
          let flag = List.nth values 2 in
          beats "flag" ~stack:(resolve ~file ?env ~flag ()) ~alone:(resolve ~flag ()))
        s.flag;
      let names_source what ~source r =
        match Helpers.check_core_error (s.key ^ ": malformed " ^ what) r with
        | Error.Config { source = got; message } as e ->
            Alcotest.(check (option string)) (s.key ^ ": " ^ what ^ " source") (Some source) got;
            Helpers.check_contains (s.key ^ ": " ^ what ^ " message") ~needle:source message;
            Alcotest.(check int) (s.key ^ ": " ^ what ^ " exit code") 2 (Error.exit_code e)
        | e -> Alcotest.failf "%s: malformed %s: expected Config, got %s" s.key what (Error.category e)
      in
      with_file s.key bad (fun path ->
          names_source "file value" ~source:path (Config.resolve ~getenv:(fun _ -> None) ~file:path ()));
      (* Only a file can give a list, so a list sample is malformed there alone. *)
      if bad.[0] <> '(' then begin
        Option.iter (fun var -> names_source "env value" ~source:var (resolve ~env:bad ())) s.env;
        Option.iter
          (fun flag -> names_source "flag value" ~source:("--" ^ flag) (resolve ~flag:bad ()))
          s.flag
      end)
    Config.settings;
  (* The inverted variable, the other way round. *)
  let c =
    Helpers.check_core "GPP_NO_CACHE=1"
      (Config.apply_env ~getenv:(getenv_of [ ("GPP_NO_CACHE", "1") ]) Config.default)
  in
  Alcotest.(check bool) "GPP_NO_CACHE=1 turns the cache off" false c.Config.cache_enabled

(* The environment surface is exactly the variables README documents. *)
let test_config_env_vars_documented () =
  let readme = In_channel.with_open_bin "../README.md" In_channel.input_all in
  let documented = ref [] in
  let n = String.length readme in
  let is_var ch = (ch >= 'A' && ch <= 'Z') || ch = '_' in
  let i = ref 0 in
  while !i < n - 4 do
    if String.sub readme !i 4 = "GPP_" then begin
      let j = ref (!i + 4) in
      while !j < n && is_var readme.[!j] do
        incr j
      done;
      if !j > !i + 4 then documented := String.sub readme !i (!j - !i) :: !documented;
      i := !j
    end
    else incr i
  done;
  let table = List.filter_map (fun (s : Config.setting) -> s.env) Config.settings in
  Alcotest.(check int) "fifteen variables" 15 (List.length table);
  Alcotest.(check (list string))
    "table = README" (List.sort_uniq compare !documented) (List.sort compare table)

(* --- workload resolution --------------------------------------------- *)

let test_workload_resolve () =
  (match Engine.Workload.resolve "vecadd/16M" with
  | Ok inst -> Alcotest.(check string) "app" "vecadd" inst.Gpp_workloads.Registry.app
  | Error e -> Alcotest.failf "registry key failed: %s" (Error.to_string e));
  (match Engine.Workload.resolve "no-such-workload/1" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error (Error.Parse { source; message }) ->
      Alcotest.(check (option string)) "source" (Some "no-such-workload/1") source;
      Helpers.check_contains "lists known keys" ~needle:"vecadd/16M" message;
      Helpers.check_contains "mentions .skel" ~needle:".skel" message
  | Error e -> Alcotest.failf "expected Parse, got %s" (Error.category e));
  (* A .skel file path resolves through the parser. *)
  let program = Gpp_workloads.Vecadd.program ~n:4096 in
  let path = write_temp ~suffix:".skel" (Gpp_skeleton.Printer.to_skel program) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  match Engine.Workload.resolve path with
  | Ok inst ->
      Alcotest.(check string) "size marker" "file" inst.Gpp_workloads.Registry.size;
      Alcotest.(check string)
        "program name" program.Gpp_skeleton.Program.name
        (inst.Gpp_workloads.Registry.program 1).Gpp_skeleton.Program.name
  | Error e -> Alcotest.failf "skel path failed: %s" (Error.to_string e)

(* --- stages and pipeline --------------------------------------------- *)

let test_stage_metadata () =
  Alcotest.(check int) "eight stages" 8 (List.length Engine.Stage.all);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Engine.Stage.name id ^ " roundtrip")
        true
        (Engine.Stage.of_name (Engine.Stage.name id) = Some id))
    Engine.Stage.all;
  Alcotest.(check (option string)) "unknown" None (Option.map Engine.Stage.name (Engine.Stage.of_name "nope"));
  let sorted = List.sort Engine.Stage.compare Engine.Stage.all in
  Alcotest.(check bool) "all is pipeline order" true (sorted = Engine.Stage.all);
  Alcotest.(check int) "pipeline stage list agrees" 8 (List.length Engine.Pipeline.stages);
  List.iteri
    (fun i (st : Engine.Pipeline.stage) ->
      Alcotest.(check int) "stage order" i (Engine.Stage.index st.Engine.Pipeline.id))
    Engine.Pipeline.stages

(* The tentpole's safety net: the staged pipeline must be bit-identical
   to the one-call facade it replaced. *)
let test_pipeline_matches_facade () =
  let program = Gpp_workloads.Vecadd.program ~n:100_000 in
  let path = write_temp ~suffix:".skel" (Gpp_skeleton.Printer.to_skel program) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let config = { Config.default with Config.seed = 2024L } in
  (* Two fresh sessions with the same seed: the application link is
     stateful, so each path needs its own. *)
  let facade_session = Grophecy.init ~seed:config.Config.seed config.Config.machine in
  let facade_report =
    Helpers.check_core "facade" (Grophecy.analyze facade_session program)
  in
  let engine_session = Engine.Pipeline.session_of config in
  let state =
    Helpers.check_core "pipeline"
      (Engine.Pipeline.run ~session:engine_session config ~workload:path)
  in
  let engine_report = Engine.Pipeline.report_exn state in
  Alcotest.(check string)
    "reports render identically"
    (Format.asprintf "%a" Grophecy.pp_report facade_report)
    (Format.asprintf "%a" Grophecy.pp_report engine_report);
  Alcotest.(check bool)
    "bitwise kernel time" true
    (Int64.bits_of_float facade_report.Grophecy.measurement.Gpp_core.Measurement.kernel_time
    = Int64.bits_of_float engine_report.Grophecy.measurement.Gpp_core.Measurement.kernel_time);
  (* Stage bookkeeping: everything ran except Lint (config.lint=false). *)
  let ran = Engine.Pipeline.completed state in
  Alcotest.(check bool) "lint skipped" true (not (List.mem Engine.Stage.Lint ran));
  Alcotest.(check int) "seven stages ran" 7 (List.length ran)

let test_pipeline_partial_run () =
  let config = Config.default in
  let session = Engine.Pipeline.session_of config in
  let state =
    Helpers.check_core "through analyze"
      (Engine.Pipeline.run ~through:Engine.Stage.Analyze ~session config ~workload:"vecadd/16M")
  in
  Alcotest.(check bool) "plan present" true (state.Engine.Pipeline.plan <> None);
  Alcotest.(check bool) "no kernels yet" true (state.Engine.Pipeline.kernels = None);
  Alcotest.(check bool) "no report yet" true (state.Engine.Pipeline.report = None);
  (* Parse failures surface as structured parse errors. *)
  match Engine.Pipeline.run ~session config ~workload:"bogus/size" with
  | Ok _ -> Alcotest.fail "expected parse failure"
  | Error e ->
      Alcotest.(check string) "category" "parse" (Error.category e);
      Alcotest.(check int) "exit code" 2 (Error.exit_code e)

(* --- batch ----------------------------------------------------------- *)

let test_batch_matrix () =
  let config = Config.default in
  let batch =
    Engine.Batch.run ~iterations:[ None; Some 4 ] config ~workloads:[ "vecadd/16M"; "nope/1" ]
  in
  Alcotest.(check int) "four cells" 4 (List.length batch.Engine.Batch.cells);
  Alcotest.(check int) "two ok" 2 (List.length (Engine.Batch.succeeded batch));
  Alcotest.(check int) "two failed" 2 (List.length (Engine.Batch.failed batch));
  Alcotest.(check bool)
    "session exposed" true
    (Engine.Batch.session batch ~machine:config.Config.machine.Gpp_arch.Machine.name <> None);
  let tsv = Engine.Batch.to_tsv batch in
  let lines = String.split_on_char '\n' (String.trim tsv) in
  Alcotest.(check int) "header + 4 rows" 5 (List.length lines);
  Alcotest.(check string) "header" Engine.Batch.tsv_header (List.hd lines);
  Alcotest.(check int)
    "error rows marked" 2
    (List.length (List.filter (fun l -> Helpers.contains_substring ~needle:"error:parse" l) lines))

(* Batch over the paper instances is exactly the experiment context:
   same sessions, same reports, in the same order. *)
let test_batch_matches_context () =
  let ctx = Gpp_experiments.Context.create () in
  let batch =
    Engine.Batch.run Config.default
      ~workloads:
        (List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances)
  in
  Alcotest.(check int) "no failures" 0 (List.length (Engine.Batch.failed batch));
  List.iter2
    (fun ((inst : Gpp_workloads.Registry.instance), (ctx_report : Grophecy.report))
         ((cell : Engine.Batch.cell), batch_report) ->
      Alcotest.(check string)
        "same order" (Gpp_workloads.Registry.key inst) cell.Engine.Batch.workload;
      Alcotest.(check string)
        (Gpp_workloads.Registry.key inst ^ " renders identically")
        (Format.asprintf "%a" Grophecy.pp_report ctx_report)
        (Format.asprintf "%a" Grophecy.pp_report batch_report))
    (Gpp_experiments.Context.instances ctx)
    (Engine.Batch.succeeded batch)

let () =
  Alcotest.run "engine"
    [
      ( "sexp",
        [
          Alcotest.test_case "parse" `Quick test_sexp_parse;
          Alcotest.test_case "roundtrip" `Quick test_sexp_roundtrip;
        ] );
      ( "errors",
        [
          Alcotest.test_case "exit codes" `Quick test_error_exit_codes;
          Alcotest.test_case "bare messages" `Quick test_error_message_bare;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults mirror init" `Quick test_config_defaults_mirror_init;
          Alcotest.test_case "file layer" `Quick test_config_file_layer;
          Alcotest.test_case "bad sexp" `Quick test_config_file_bad_sexp;
          Alcotest.test_case "unknown keys" `Quick test_config_file_unknown_key;
          Alcotest.test_case "env layer" `Quick test_config_env_layer;
          Alcotest.test_case "precedence" `Quick test_config_precedence;
          Alcotest.test_case "transfer-plan layers" `Quick test_config_transfer_plan_layers;
          Alcotest.test_case "layering" `Quick test_config_layering;
          Alcotest.test_case "env vars documented" `Quick test_config_env_vars_documented;
        ] );
      ( "workload",
        [ Alcotest.test_case "resolve" `Quick test_workload_resolve ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage metadata" `Quick test_stage_metadata;
          Alcotest.test_case "matches facade" `Quick test_pipeline_matches_facade;
          Alcotest.test_case "partial run" `Quick test_pipeline_partial_run;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matrix" `Quick test_batch_matrix;
          Alcotest.test_case "matches context" `Slow test_batch_matches_context;
        ] );
    ]
