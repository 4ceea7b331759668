(** Per-domain execution context shared by {!Engine}, {!Shared} and the
    lint recorder ([Hwf_lint]).

    Three concerns live here, all domain-local (one engine run executes
    entirely on one domain, so domain-local state is per-run state):

    - the {e process-context flag}: true exactly while process code (a
      body resumed by {!Engine.run}) is executing. {!Shared.peek} and
      {!Shared.poke} consult it to enforce their harness-only contract
      at run time instead of by documentation alone;
    - the {e instrumentation bracket}: algorithm modules that keep
      harness statistics from inside process code (e.g. the
      access-failure tap of [Hwf_core.Multi_consensus]) wrap those
      zero-statement accesses in {!instrumentation}, which exempts them
      from the guard and marks them for the lint recorder;
    - the {e access tap}: when installed (lint replay), every concrete
      store access — including peeks and pokes that would otherwise
      raise — is reported instead, so the conformance linter can
      cross-check accesses against announced statements rather than
      crash on the first offence. *)

type access_kind = Read | Write | Peek | Poke

type access = {
  var : string;  (** The shared variable's name. *)
  kind : access_kind;
  instrumentation : bool;
      (** The access happened inside an {!instrumentation} bracket. *)
}

val pp_kind : access_kind Fmt.t
val pp_access : access Fmt.t

val enter_process : unit -> unit
(** Mark the start of process-code execution. {b Engine use only} —
    called immediately before resuming a process continuation. *)

val exit_process : unit -> unit
(** Mark the end of process-code execution. {b Engine use only} —
    called as soon as control returns to the scheduler (effect handler
    entry). *)

val in_process : unit -> bool
(** True while process code is executing on this domain. *)

val instrumentation : (unit -> 'a) -> 'a
(** [instrumentation f] runs [f] with the harness-only guard suspended:
    {!Shared.peek}/{!Shared.poke} inside [f] do not raise even from
    process code, and any tapped accesses are flagged as
    instrumentation (the linter ignores them). For deliberate,
    zero-statement bookkeeping only — never for algorithm steps. *)

val with_tap : (access -> unit) -> (unit -> 'a) -> 'a
(** [with_tap tap f] installs [tap] as this domain's access sink for
    the duration of [f] (restoring any previous tap afterwards). While
    installed, harness-only accesses from process code report instead
    of raising. *)

val report : var:string -> kind:access_kind -> unit
(** Report a legitimate (announced) store access to the tap, if one is
    installed. {b Shared use only.} *)

val harness_access : ('n -> string) -> 'n -> kind:access_kind -> unit
(** [harness_access render name ~kind] polices one
    {!Shared.peek}/{!Shared.poke}: report it to the tap when one is
    installed; otherwise raise [Invalid_argument] if called from process
    code outside an {!instrumentation} bracket. The variable's name is
    [render name], computed only when the access is reported or refused,
    so a quiet peek renders nothing. {b Shared use only.} *)
