open Cmdliner
module Engine = Gpp_engine

(* -n is checked like the iterations setting, but the break-even
   verdict prices the program as bundled: the count feeds the advisor's
   amortization analysis only, so the Parse stage must not rescale
   Repeat nodes here. *)
let run scenario key iterations =
  match
    Result.bind scenario (fun c ->
        Engine.Config.set c ~source:"--iterations" "iterations" iterations)
  with
  | Error e -> Cmd_common.fail e
  | Ok c -> (
      let iterations = Option.get c.Engine.Config.iterations in
      let c = { c with Engine.Config.lint = true; iterations = None } in
      let session = Engine.Pipeline.session_of c in
      match Engine.Pipeline.run ~through:Engine.Stage.Project ~session c ~workload:key with
      | Error e -> Cmd_common.fail e
      | Ok state ->
          let projection = Engine.Pipeline.projection_exn state in
          let r = Gpp_core.Advisor.recommend ~iterations projection in
          Format.printf "%a@." Gpp_core.Advisor.pp r;
          0)

let cmd =
  let doc =
    "Should this workload be ported?  Prediction-only verdict with break-even analysis."
  in
  let iterations_arg =
    let doc = "Iteration count for iterative workloads." in
    Arg.(value & opt string "1" & info [ "iterations"; "n" ] ~doc)
  in
  Cmd.v
    (Cmd.info "advise" ~doc)
    Term.(
      const run
      $ Cmd_common.(scenario [ machine; machines; seed ])
      $ Cmd_common.workload_arg $ iterations_arg)
