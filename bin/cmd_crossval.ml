open Cmdliner
module Engine = Gpp_engine
module Crossval = Gpp_experiments.Crossval

(* grophecy crossval — calibrate (alpha, beta) on every machine of a
   set, score each calibration against every other machine's transfers
   and end-to-end projections, and render the ordered-pair matrix as a
   stable TSV (the CI cross-machine leg diffs it against a committed
   golden file).  Same-machine rows are the accuracy baseline. *)

(* Each --predict occurrence names one predictor variant to score; no
   occurrence keeps the historical single-matrix output byte-identical. *)
let parse_predictors specs =
  List.fold_left
    (fun acc spec ->
      match acc with
      | Error _ as e -> e
      | Ok ps -> (
          match Gpp_predict.Predictor.of_string spec with
          | Ok p -> Ok (ps @ [ p ])
          | Error m -> Error (Engine.Error.config ~source:"--predict" m)))
    (Ok []) specs

let emit_tsv ~out ~count tsv =
  match out with
  | None -> print_string tsv
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc tsv);
      Printf.printf "wrote %d pair(s) to %s\n" count path

let run scenario machines workloads predicts max_mib out summary =
  match scenario with
  | Error e -> Cmd_common.fail e
  | Ok c -> (
      match Cmd_common.resolve_machines c machines with
      | Error e -> Cmd_common.fail e
      | Ok resolved -> (
          let machines =
            match resolved with [] -> c.Engine.Config.machines | ms -> ms
          in
          let workloads = match workloads with [] -> None | ws -> Some ws in
          match parse_predictors predicts with
          | Error e -> Cmd_common.fail e
          | Ok [] -> (
              match
                Crossval.run ?protocol:c.Engine.Config.protocol
                  ?analytic_params:c.Engine.Config.analytic ?space:c.Engine.Config.space
                  ?policy:c.Engine.Config.policy ~seed:c.Engine.Config.seed ?workloads
                  ~max_bytes:(max_mib * Gpp_util.Units.mib) ~machines ()
              with
              | Error e -> Cmd_common.fail e
              | Ok result ->
                  emit_tsv ~out ~count:(List.length result.Crossval.pairs)
                    (Crossval.to_tsv result);
                  if summary then Format.printf "%a@." Crossval.pp_summary result;
                  0)
          | Ok predictors -> (
              match
                Crossval.run_variants ?protocol:c.Engine.Config.protocol
                  ?analytic_params:c.Engine.Config.analytic ?space:c.Engine.Config.space
                  ?policy:c.Engine.Config.policy ?sim_config:c.Engine.Config.sim
                  ?runs:c.Engine.Config.runs ~lambda:c.Engine.Config.predict_lambda
                  ~seed:c.Engine.Config.seed ?workloads
                  ~max_bytes:(max_mib * Gpp_util.Units.mib) ~predictors ~machines ()
              with
              | Error e -> Cmd_common.fail e
              | Ok result ->
                  emit_tsv ~out ~count:(List.length result.Crossval.rows)
                    (Crossval.variants_to_tsv result);
                  if summary then Format.printf "%a@." Crossval.pp_variants_summary result;
                  0)))

let cmd =
  let doc =
    "Calibrate the transfer model on every machine and score each calibration on every other \
     machine (transfer sweep and end-to-end projections), as an ordered-pair TSV matrix."
  in
  let machines_arg =
    Arg.(
      value & opt_all string []
      & info [ "machine"; "m" ] ~docv:"NAME"
          ~doc:
            "Machine to include by catalog id (repeatable; see $(b,grophecy list)).  Defaults \
             to the entire catalog.")
  in
  let workloads_arg =
    Arg.(
      value & opt_all string []
      & info [ "workload"; "w" ] ~docv:"WORKLOAD"
          ~doc:
            "Workload instance ($(b,app/size)) for the end-to-end leg (repeatable).  Defaults \
             to a small transfer- and kernel-bound mix.")
  in
  let predict_arg =
    Arg.(
      value & opt_all string []
      & info [ "predict" ] ~docv:"STACK"
          ~doc:
            "Predictor variant to score (repeatable): a comma-separated stage list among \
             $(b,analytic), $(b,scaled), and $(b,learned), e.g. $(b,--predict analytic --predict \
             scaled --predict scaled,learned).  With at least one occurrence the matrix switches \
             to the per-variant format scored against each target's simulated measured totals; \
             without it the historical single-matrix TSV is emitted unchanged.  Unknown stage \
             names exit 2 with a suggestion.")
  in
  let max_mib_arg =
    Arg.(
      value & opt int 64
      & info [ "max-mib" ] ~docv:"MIB"
          ~doc:"Largest transfer of the power-of-two sweep, in MiB.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the TSV to $(docv) instead of stdout.")
  in
  let summary_arg =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:"Also print the accuracy/scope summary (same-machine residual, cross-machine \
                decay, pairs within a 10% end-to-end budget).")
  in
  Cmd.v (Cmd.info "crossval" ~doc)
    Term.(
      const run
      $ Cmd_common.(scenario [ machines; seed ])
      $ machines_arg $ workloads_arg $ predict_arg $ max_mib_arg $ out_arg $ summary_arg)
