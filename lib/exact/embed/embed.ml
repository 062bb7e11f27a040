(* Turn the shipped NPN tables into an OCaml module, so the binaries carry
   them and do not depend on the directory they run from.

     embed.exe NAME FILE [NAME FILE ...]

   prints [let tables = [ (NAME, "<bytes of FILE>"); ... ]]. *)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let rec pairs = function
    | name :: file :: rest -> (name, file) :: pairs rest
    | [] -> []
    | [ _ ] -> failwith "embed: expected NAME FILE pairs"
  in
  let args = List.tl (Array.to_list Sys.argv) in
  print_string "(* Generated from the npn4_*.glxs files; do not edit. *)\n\n";
  print_string "let tables = [\n";
  List.iter
    (fun (name, file) -> Printf.printf "  (%S, %S);\n" name (read file))
    (pairs args);
  print_string "]\n"
