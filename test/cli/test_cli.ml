(* Black-box test of the umf_cli tolerance surface: both solvers take
   --epsilon (a target certified error); --dt is an unknown option on
   both, rejected as a cmdliner usage error; the hull command's own
   --dt (its integrator step) still works. *)

let cli = Sys.argv.(1)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* exit code + captured stderr of one invocation (stdout discarded) *)
let run args =
  let err_file = Filename.temp_file "umf_cli_test" ".err" in
  let err_fd =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin null err_fd
  in
  Unix.close err_fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  let ic = open_in_bin err_file in
  let err = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_file;
  (code, err)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_ok name args =
  let code, err = run args in
  if code <> 0 then fail "%s: expected success, got exit %d:\n%s" name code err

let check_unknown_dt name args =
  let code, err = run args in
  (* cmdliner's usage-error exit code *)
  if code <> 124 then
    fail "%s: expected usage error (124) for --dt, got %d:\n%s" name code err;
  if not (contains err "unknown option '--dt'") then
    fail "%s: stderr does not name --dt as unknown:\n%s" name err

let bounds_args =
  [ "bounds"; "-m"; "sir"; "--var"; "I"; "--horizon"; "0.5"; "--points";
    "2"; "--steps"; "20" ]

let ctmc_args =
  [ "ctmc"; "transient"; "-m"; "sir"; "--size"; "5"; "--points"; "2";
    "--horizon"; "0.5" ]

let () =
  check_ok "bounds --epsilon" (bounds_args @ [ "--epsilon"; "1e-2" ]);
  check_ok "ctmc --epsilon" (ctmc_args @ [ "--epsilon"; "1e-2" ]);
  check_unknown_dt "bounds --dt" (bounds_args @ [ "--dt"; "0.05" ]);
  check_unknown_dt "ctmc --dt" (ctmc_args @ [ "--dt"; "0.05" ]);
  check_ok "hull --dt"
    [ "hull"; "-m"; "sir"; "--horizon"; "0.5"; "--dt"; "0.05" ];
  print_endline
    "cli OK (--epsilon on both solvers, --dt unknown on both, hull --dt \
     accepted)"
