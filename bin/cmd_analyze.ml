open Cmdliner
module Engine = Gpp_engine

let run scenario key =
  match scenario with
  | Error e -> Cmd_common.fail e
  | Ok c -> (
      let c =
        if c.Engine.Config.iterations = None then { c with Engine.Config.iterations = Some 1 }
        else c
      in
      let session = Engine.Pipeline.session_of c in
      match Engine.Pipeline.run ~session c ~workload:key with
      | Error e -> Cmd_common.fail e
      | Ok state ->
          Format.printf "%a@." Gpp_core.Grophecy.pp_report (Engine.Pipeline.report_exn state);
          Gpp_core.Grophecy.log_cache_stats ();
          0)

let cmd =
  let doc =
    "Project a workload, measure it on the simulated hardware, and report speedups and errors."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run
      $ Cmd_common.(scenario [ machine; machines; seed; iterations; runs; transfer_plan ])
      $ Cmd_common.workload_arg)
