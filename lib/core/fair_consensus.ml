open Hwf_sim

type 'a t = {
  config : Config.t;
  output : 'a option Shared.t;
  elections : int Uni_consensus.t array array;  (* [P][V] *)
  global : 'a Multi_consensus.t;
  mutable lost : int;
}

let make ~config ~name ~consensus_number =
  let p = config.Config.processors in
  let v = config.Config.levels in
  let name = Shared.Name.v name in
  let elect = Shared.Name.dot name "elect" in
  {
    config;
    output = Shared.named (Shared.Name.dot name "Output") None;
    elections =
      Array.init p (fun i ->
          let row = Shared.Name.idx elect (i + 1) in
          Array.init v (fun w -> Uni_consensus.named (Shared.Name.idx row (w + 1))));
    global =
      Multi_consensus.named ~config ~name:(Shared.Name.dot name "global") ~consensus_number ();
    lost = 0;
  }

let decide t ~pid input =
  let i = t.config.Config.procs.(pid).Proc.processor in
  let v = t.config.Config.procs.(pid).Proc.priority in
  (* line 1: elect one process per (processor, level) *)
  if Uni_consensus.decide t.elections.(i).(v - 1) pid <> pid then begin
    t.lost <- t.lost + 1;
    (* lines 2-3: spin until the winners publish *)
    let rec wait () =
      match Shared.read t.output with None -> wait () | Some r -> r
    in
    wait ()
  end
  else begin
    (* lines 4-6 *)
    let output = Multi_consensus.decide t.global ~pid input in
    Shared.write t.output (Some output);
    output
  end

let elections_lost t = t.lost
