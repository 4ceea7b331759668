open Hwf_sim

type t = Proc.pid list

let to_string s = String.concat " " (List.map (fun p -> string_of_int (p + 1)) s)

let of_string ?n str =
  let toks =
    String.split_on_char ' ' (String.trim str)
    |> List.concat_map (String.split_on_char '\n')
    |> List.filter (fun s -> s <> "")
  in
  (* Tokens are 1-based pids. Validate each one: a malformed or
     out-of-range token used to parse into a pid that is silently never
     runnable, so a corrupt saved schedule replayed as if empty and its
     verdict could vacuously pass. *)
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
      match int_of_string_opt tok with
      | None ->
        Error (Printf.sprintf "Schedule.of_string: cannot parse token %S" tok)
      | Some v when v < 1 ->
        Error
          (Printf.sprintf
             "Schedule.of_string: token %S out of range (pids are 1-based)" tok)
      | Some v when (match n with Some n -> v > n | None -> false) ->
        Error
          (Printf.sprintf
             "Schedule.of_string: token %S out of range (scenario has %d processes)"
             tok (Option.get n))
      | Some v -> parse ((v - 1) :: acc) rest)
  in
  parse [] toks

let save ~path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string s ^ "\n"))

let load ?n ~path () =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string ?n (In_channel.input_all ic))
  with Sys_error msg -> Error msg

let replay ?(step_limit = 1_000_000) (scenario : Explore.scenario) schedule =
  let instance = scenario.make () in
  let policy = Policy.scripted ~fallback:Policy.first schedule in
  let result = Engine.run ~step_limit ~config:scenario.config ~policy instance.programs in
  (result, instance)

let verdict ?step_limit scenario schedule =
  let result, instance = replay ?step_limit scenario schedule in
  Explore.verdict ~on_step_limit:`Fail instance result
