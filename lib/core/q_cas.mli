(** Quantum-based compare-and-swap from reads and writes ("Q-C&S").

    The subroutine used by Fig. 5 (lines 34/36/41/43) to update the
    per-priority-level head variables, and by Fig. 7 ("local-C&S") to
    update [Port] and [Lastpub]: a linearizable, wait-free C&S object
    shared by processes of {e one} priority level on one processor. See
    {!Chain} for the construction and its contract, and DESIGN.md
    (Substitution 2) for how it relates to the original constant-time
    algorithm of Anderson–Jain–Ott.

    Values are compared with structural equality. *)

type 'a t

val make : string -> 'a -> 'a t

val named : Hwf_sim.Shared.Name.t -> 'a -> 'a t
(** {!make} with a name rendered on first use ({!Hwf_sim.Shared.Name}). *)

val cas : 'a t -> who:int -> expected:'a -> desired:'a -> bool
(** Atomically: if the current value equals [expected], replace it with
    [desired] and return [true]; otherwise return [false]. *)

val read : 'a t -> 'a
(** Linearizable read; safe from any priority level. *)

val write : 'a t -> who:int -> 'a -> unit
(** Unconditional atomic store (a C&S that always succeeds), provided
    for baselines and tests. *)

val peek : 'a t -> 'a
(** Harness inspection; not a statement. *)

val max_attempts : 'a t -> int
(** Harness inspection, see {!Chain.max_attempts}. *)
