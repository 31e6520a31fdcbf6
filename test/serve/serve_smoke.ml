(* End-to-end smoke test for the serve daemon: exercises Serve.process
   (batching, caching, deadlines, backpressure) and the serve_fd pipe
   transport without spawning the binary. *)

open Umf
module Json = Obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let parse line =
  match Json.of_string line with
  | Json.Obj _ as j -> j
  | _ | (exception Failure _) -> fail "response is not a JSON object: %s" line

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "response lacks %S: %s" name (Json.to_string j)

let bool_member name j =
  match member name j with
  | Json.Bool b -> b
  | v -> fail "%S is not a bool: %s" name (Json.to_string v)

let str_member name j =
  match member name j with
  | Json.Str s -> s
  | v -> fail "%S is not a string: %s" name (Json.to_string v)

(* the payload a cache hit must reproduce bitwise: the Json printer
   round-trips floats (%.17g), so re-rendered equality of the parsed
   members is byte equality of the original payload *)
let payload line =
  let j = parse line in
  (Json.to_string (member "result" j), Json.to_string (member "cert" j))

let bounds_req ?(id = 1) ?(extra = "") () =
  Printf.sprintf
    "{\"id\":%d,\"op\":\"bounds\",\"model\":\"sir\",\"coord\":1,\
     \"horizon\":2,\"steps\":60,\"times\":[0.0,1.0,2.0]%s}"
    id extra

let with_server ?(queue_limit = 64) f =
  let t =
    Serve.create (Serve.config ~domains:2 ~queue_limit ())
  in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () -> f t)

(* --- cache: warm hit is bitwise-identical to the cold run ---------- *)

let test_cache_identity () =
  with_server (fun t ->
      let cold =
        match Serve.process t [ bounds_req () ] with
        | [ r ] -> r
        | rs -> fail "expected 1 cold response, got %d" (List.length rs)
      in
      let warm = List.hd (Serve.process t [ bounds_req () ]) in
      if not (bool_member "ok" (parse cold)) then
        fail "cold request failed: %s" cold;
      if bool_member "cached" (parse cold) then
        fail "cold request claims cached: %s" cold;
      if not (bool_member "cached" (parse warm)) then
        fail "second identical request missed the cache: %s" warm;
      if payload cold <> payload warm then
        fail "warm payload differs from cold:\n  %s\n  %s" cold warm;
      (* the cert ledger is present and carries all four budget lines *)
      let cert = member "cert" (parse warm) in
      List.iter
        (fun l ->
          ignore (member l (member "budget" cert)))
        [ "discretisation"; "truncation"; "rounding"; "optimiser" ])

(* --- determinism: same batch on two fresh servers ------------------ *)

let test_batch_determinism () =
  let batch =
    [
      bounds_req ~id:1 ();
      bounds_req ~id:2 ~extra:",\"scenario\":{\"uncertain\":3}" ();
      "{\"id\":3,\"op\":\"hull\",\"model\":\"sir\",\"horizon\":2,\
       \"steps\":60}";
      bounds_req ~id:4 ();
    ]
  in
  let run () = with_server (fun t -> Serve.process t batch) in
  let a = run () and b = run () in
  if List.length a <> List.length batch then
    fail "expected %d responses, got %d" (List.length batch)
      (List.length a);
  List.iteri
    (fun i (ra, rb) ->
      if not (bool_member "ok" (parse ra)) then
        fail "batch request %d failed: %s" i ra;
      if payload ra <> payload rb then
        fail "batch request %d differs across servers:\n  %s\n  %s" i ra rb)
    (List.combine a b);
  (* responses come back in request order *)
  List.iteri
    (fun i r ->
      match member "id" (parse r) with
      | Json.Num n when int_of_float n = i + 1 -> ()
      | v -> fail "response %d has id %s" i (Json.to_string v))
    a

(* --- deadlines: structured error, worker survives ------------------ *)

let test_deadline () =
  with_server (fun t ->
      let expired =
        List.hd
          (Serve.process t
             [ bounds_req ~extra:",\"deadline_ms\":0.001,\"cache\":false" () ])
      in
      let j = parse expired in
      if bool_member "ok" j then fail "expired request succeeded: %s" expired;
      let err = member "error" j in
      if str_member "kind" err <> "deadline_exceeded" then
        fail "expected deadline_exceeded, got: %s" expired;
      (* the partial ledger rides along *)
      ignore (member "budget" (member "cert" j));
      (* the worker that unwound still answers the next request *)
      let next = List.hd (Serve.process t [ bounds_req ~id:9 () ]) in
      if not (bool_member "ok" (parse next)) then
        fail "worker did not survive deadline expiry: %s" next)

(* --- backpressure: queue limit refuses the excess ------------------ *)

let test_overload () =
  with_server ~queue_limit:1 (fun t ->
      let rs =
        Serve.process t
          [ bounds_req ~id:1 (); bounds_req ~id:2 ~extra:",\"tol\":1e-5" ();
            "{\"id\":3,\"op\":\"ping\"}" ]
      in
      match List.map parse rs with
      | [ r1; r2; r3 ] ->
          if not (bool_member "ok" r1) then fail "admitted request failed";
          if bool_member "ok" r2 then fail "excess request was admitted";
          if str_member "kind" (member "error" r2) <> "overloaded" then
            fail "expected overloaded, got: %s" (Json.to_string r2);
          (* service ops don't count against the analysis queue *)
          if not (bool_member "ok" r3) then fail "ping was refused"
      | rs -> fail "expected 3 responses, got %d" (List.length rs))

(* --- hull: clipped to the model's box, as umf_cli hull is ---------- *)

(* Unclipped, sir3's hull blows up past horizon ~1 and turns NaN before
   horizon 2. *)
let test_hull_clipped () =
  let { Optim.Box.lo; hi } = Model.clip (Registry.find_exn "sir3") in
  with_server (fun t ->
      let r =
        List.hd
          (Serve.process t
             [ "{\"id\":1,\"op\":\"hull\",\"model\":\"sir3\",\"horizon\":2}" ])
      in
      let j = parse r in
      if not (bool_member "ok" j) then fail "sir3 hull at horizon 2: %s" r;
      let rows side =
        match member side (member "result" j) with
        | Json.Arr rows -> rows
        | v -> fail "hull %s malformed: %s" side (Json.to_string v)
      in
      List.iter
        (fun side ->
          List.iter
            (function
              | Json.Arr xs ->
                  List.iteri
                    (fun i -> function
                      | Json.Num v when v >= lo.(i) && v <= hi.(i) -> ()
                      | v ->
                          fail "sir3 hull %s coord %d = %s outside [%g, %g]"
                            side i (Json.to_string v) lo.(i) hi.(i))
                    xs
              | v -> fail "hull %s row malformed: %s" side (Json.to_string v))
            (rows side))
        [ "lower"; "upper" ])

(* --- transport: pipelined lines over a pipe ------------------------ *)

let test_pipe_transport () =
  with_server (fun t ->
      let req_r, req_w = Unix.pipe ~cloexec:false () in
      let resp_r, resp_w = Unix.pipe ~cloexec:false () in
      let input =
        String.concat "\n"
          [ "{\"id\":\"a\",\"op\":\"ping\"}";
            "{\"id\":\"b\",\"op\":\"models\"}"; bounds_req ~id:7 (); "" ]
      in
      let writer =
        Thread.create
          (fun () ->
            ignore (Unix.write_substring req_w input 0 (String.length input));
            Unix.close req_w)
          ()
      in
      let server =
        Thread.create
          (fun () ->
            Serve.serve_fd t ~input:req_r ~output:resp_w;
            Unix.close resp_w)
          ()
      in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read resp_r chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Thread.join writer;
      Thread.join server;
      Unix.close req_r;
      Unix.close resp_r;
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> String.trim l <> "")
      in
      if List.length lines <> 3 then
        fail "expected 3 response lines over the pipe, got %d"
          (List.length lines);
      List.iter2
        (fun want line ->
          let j = parse line in
          if not (bool_member "ok" j) then fail "pipe response failed: %s" line;
          if Json.to_string (member "id" j) <> want then
            fail "pipe response out of order: %s" line)
        [ "\"a\""; "\"b\""; "7" ] lines;
      (* the models endpoint lists the registry *)
      match member "result" (parse (List.nth lines 1)) with
      | Json.Obj _ | Json.Arr _ -> ()
      | v -> fail "models result malformed: %s" (Json.to_string v))

let () =
  test_cache_identity ();
  test_batch_determinism ();
  test_deadline ();
  test_overload ();
  test_hull_clipped ();
  test_pipe_transport ();
  print_endline
    "serve-smoke OK (cache identity, batch determinism, deadline, \
     backpressure, clipped hull, pipe transport)"
