type access_kind = Read | Write | Peek | Poke

type access = { var : string; kind : access_kind; instrumentation : bool }

let pp_kind ppf k =
  Fmt.string ppf
    (match k with Read -> "read" | Write -> "write" | Peek -> "peek" | Poke -> "poke")

let pp_access ppf a =
  Fmt.pf ppf "%a %s%s" pp_kind a.kind a.var
    (if a.instrumentation then " (instrumentation)" else "")

(* One context per domain: the engine executes a run entirely on one
   domain, and the pool fans runs out over distinct domains, so
   domain-local state is exactly per-run state. *)
type ctx = {
  mutable in_process : bool;
  mutable instr_depth : int;
  mutable tap : (access -> unit) option;
}

let key =
  Domain.DLS.new_key (fun () -> { in_process = false; instr_depth = 0; tap = None })

let ctx () = Domain.DLS.get key

let enter_process () = (ctx ()).in_process <- true
let exit_process () = (ctx ()).in_process <- false
let in_process () = (ctx ()).in_process

let instrumentation f =
  let c = ctx () in
  c.instr_depth <- c.instr_depth + 1;
  Fun.protect ~finally:(fun () -> c.instr_depth <- c.instr_depth - 1) f

let with_tap tap f =
  let c = ctx () in
  let previous = c.tap in
  c.tap <- Some tap;
  Fun.protect ~finally:(fun () -> c.tap <- previous) f

let report ~var ~kind =
  let c = ctx () in
  match c.tap with
  | None -> ()
  | Some f -> f { var; kind; instrumentation = c.instr_depth > 0 }

let harness_access render name ~kind =
  let c = ctx () in
  if c.in_process && c.instr_depth = 0 then begin
    match c.tap with
    | Some f -> f { var = render name; kind; instrumentation = false }
    | None ->
      Fmt.invalid_arg "Shared.%a: harness-only access to %s from process code"
        pp_kind kind (render name)
  end
  else
    match c.tap with
    | None -> ()
    | Some f -> f { var = render name; kind; instrumentation = c.instr_depth > 0 }
