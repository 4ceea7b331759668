(** Shared variables.

    A ['a t] is a single-word shared variable in the paper's sense: reads
    and writes of it are atomic statements. Records the paper stores "in
    one word" (e.g. [hdtype]) are represented directly as OCaml values
    held in one variable, which preserves the atomicity granularity.

    Each access performs exactly one {!Eff.step}, so accesses are visible
    to the scheduler and counted against the quantum.

    A store models memory shared between {e simulated} processes, not
    between OCaml domains: it is a plain mutable cell, safe because the
    engine executes one statement at a time on one domain. When runs are
    fanned out across a domain pool ([docs/PARALLELISM.md]), each run
    must build its own stores (scenario [make] functions already do),
    so no store is ever touched by two domains. *)

(** {1 Names}

    A variable's trace name is built on demand. A make function hands
    over the parts — a base string plus the fields and indices derived
    from it — and the string is rendered once, on the variable's first
    use: its first statement, {!name}, or a {!peek}/{!poke} that is
    reported or refused. The variable then keeps the string in place of
    the parts. Most variables of a scenario are never touched in a given
    run, so most names are never rendered.

    An index is captured as a value when the name is built, i.e. when
    the variable is created: a later change to whatever it was computed
    from (e.g. a growing {!Vec.length}) does not alter the name.

    Never format a name on a make path or in process code
    ([Printf.sprintf], [^]): build it with {!Name.dot} and {!Name.idx}. *)

module Name : sig
  type t = private
    | Lit of string  (** A plain string, or a rendering. *)
    | Dot of t * string  (** [Dot (n, f)] renders as [n ^ "." ^ f]. *)
    | Idx of t * int
        (** [Idx (n, i)] renders as [n ^ "[" ^ string_of_int i ^ "]"];
            [i >= 0] is printed as given (callers add 1 where the paper
            counts from 1). *)
  (** The parts of a name. An object named like a variable (a
      consensus object, a chain) keeps a mutable [t] and, on first use,
      replaces the parts by [v (render parts)], as a variable does. *)

  val v : string -> t
  val dot : t -> string -> t
  val idx : t -> int -> t
  (** @raise Invalid_argument on a negative index. *)

  val render : t -> string
  (** The rendering of the parts: the string itself for [Lit], a fresh
      string otherwise. *)
end

(** {1 Variables} *)

type 'a t

val make : string -> 'a -> 'a t
(** [make name init] creates a shared variable. [name] appears in traces. *)

val named : Name.t -> 'a -> 'a t
(** [named name init] is {!make} with a name rendered on first use. *)

val name : 'a t -> string

val read : 'a t -> 'a
(** Atomic read (one statement). *)

val write : 'a t -> 'a -> unit
(** Atomic write (one statement). *)

val peek : 'a t -> 'a
(** Read the current value {e without} consuming a statement. For test
    harnesses and checkers inspecting quiescent state only — never call
    from process code. The contract is enforced at run time: under an
    active {!Engine.run}, a peek from process code raises
    [Invalid_argument] unless it is wrapped in
    {!Runtime.instrumentation} (deliberate zero-statement bookkeeping)
    or a lint tap is installed ({!Runtime.with_tap}), in which case the
    offence is reported to the linter instead. *)

val poke : 'a t -> 'a -> unit
(** Initialize/overwrite without consuming a statement. Harness use
    only; enforced at run time exactly like {!peek}. *)

val array : Name.t -> int -> (int -> 'a) -> 'a t array
(** [array name n init] creates [n] shared variables named
    [name[1]] … [name[n]], element [i] initialized to [init i]
    (0-based [i]; names render 1-based like the paper). *)

val matrix : Name.t -> int -> int -> (int -> int -> 'a) -> 'a t array array
(** Two-dimensional variant: [name[i][j]]. *)
