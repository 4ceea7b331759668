(** Schedules as data: serialize, replay and re-judge the decision
    sequences produced by {!Explore}, so counterexamples can be saved,
    shared and re-examined.

    A schedule is the pid sequence of scheduling decisions. Replaying
    follows it with a strict scripted policy backed by a deterministic
    fallback ({!Hwf_sim.Policy.first}) for decisions the script cannot
    take (after shrinking, some entries may no longer be runnable at
    their turn — they are skipped). *)

type t = Hwf_sim.Proc.pid list

val to_string : t -> string
(** One decision per token, 1-based pids: ["1 2 2 1"]. *)

val of_string : ?n:int -> string -> (t, string) result
(** Parses and validates: every token must be an integer [>= 1] (pids
    are 1-based on the wire) and [<= n] when the scenario's process
    count [n] is known. A failing token is named in the [Error] —
    out-of-range pids used to parse into decisions that were silently
    never runnable, so a corrupt saved schedule replayed as if empty
    and could vacuously pass {!verdict}. *)

val save : path:string -> t -> unit

val load : ?n:int -> path:string -> unit -> (t, string) result
(** [of_string] over the file's contents; [Sys_error]s become [Error]. *)

val replay :
  ?step_limit:int ->
  Explore.scenario ->
  t ->
  Hwf_sim.Engine.result * Explore.instance
(** Runs a fresh instance of the scenario under the schedule. *)

val verdict : ?step_limit:int -> Explore.scenario -> t -> (unit, string) result
(** Replays and judges with {!Explore.verdict} (step and decision
    limits are failures), so a replayed schedule gets the explorer's
    verdict and message. *)
