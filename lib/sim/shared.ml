module Name = struct
  type t = Lit of string | Dot of t * string | Idx of t * int

  let v s = Lit s
  let dot up field = Dot (up, field)

  let idx up i =
    if i < 0 then invalid_arg "Shared.Name.idx: negative index";
    Idx (up, i)

  let rec digits i = if i < 10 then 1 else 1 + digits (i / 10)

  let rec length = function
    | Lit s -> String.length s
    | Dot (up, field) -> length up + 1 + String.length field
    | Idx (up, i) -> length up + 2 + digits i

  (* Writes the decimal digits of [i] to end just before [stop]; returns
     where they start. *)
  let rec put_digits b stop i =
    let stop = stop - 1 in
    Bytes.set b stop (Char.chr (48 + (i mod 10)));
    if i < 10 then stop else put_digits b stop (i / 10)

  (* Writes the rendering of a name to end just before [stop], back to
     front. *)
  let rec fill b stop = function
    | Lit s -> Bytes.blit_string s 0 b (stop - String.length s) (String.length s)
    | Dot (up, field) ->
      let start = stop - String.length field in
      Bytes.blit_string field 0 b start (String.length field);
      Bytes.set b (start - 1) '.';
      fill b (start - 1) up
    | Idx (up, i) ->
      Bytes.set b (stop - 1) ']';
      let start = put_digits b (stop - 1) i in
      Bytes.set b (start - 1) '[';
      fill b (start - 1) up

  (* One allocation: the string itself. *)
  let render = function
    | Lit s -> s
    | n ->
      let len = length n in
      let b = Bytes.create len in
      fill b len n;
      Bytes.unsafe_to_string b
end

type 'a t = { mutable v : 'a; mutable name : Name.t }

let named name v = { v; name }
let make name v = named (Name.v name) v

(* Rendered once: the parts are replaced by their rendering, so a
   touched variable keeps one string, as an eagerly named one did. *)
let name t =
  match t.name with
  | Lit s -> s
  | n ->
    let s = Name.render n in
    t.name <- Lit s;
    s

let read t =
  let var = name t in
  Eff.step (Op.read var);
  Runtime.report ~var ~kind:Runtime.Read;
  t.v

let write t x =
  let var = name t in
  Eff.step (Op.write var);
  Runtime.report ~var ~kind:Runtime.Write;
  t.v <- x

let peek t =
  Runtime.harness_access name t ~kind:Runtime.Peek;
  t.v

let poke t x =
  Runtime.harness_access name t ~kind:Runtime.Poke;
  t.v <- x

let array name n init = Array.init n (fun i -> named (Name.idx name (i + 1)) (init i))

let matrix name rows cols init =
  Array.init rows (fun i -> array (Name.idx name (i + 1)) cols (init i))
