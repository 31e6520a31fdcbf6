(* In-process side of the repository benchmark (perfbench/run.py drives
   it; see perfbench/README.md).

     umf_bench.exe setup WORKLOAD
     umf_bench.exe run WORKLOAD --seed N --seconds S --trace 0|1 --out FILE
     umf_bench.exe tape --models a,b --steps K --out FILE
     umf_bench.exe codec --requests FILE --responses FILE --out FILE
     umf_bench.exe clip

   WORKLOAD is meanfield_batch or ctmc_finite_n.  Each mode writes raw
   samples as one JSON object; every statistic (percentiles, medians,
   self time) is computed by run.py, so there is one
   implementation of each.

   The program only calls public entry points (Analysis, Ctmc.Engine,
   Runtime.Pool, Tape.Plan, Codec, Obs.Agg) and adds no probe to the
   library: the traced passes read the library's own spans and
   counters through the [?obs] parameters, plus one [bench.<op>] span
   per call that this file records around it. *)
open Umf
module J = Obs.Json
module E = Ctmc.Engine
module Pool = Runtime.Pool

let now = Unix.gettimeofday

let num x = J.Num x
let int x = J.Num (float_of_int x)
let str s = J.Str s
let arr f xs = J.Arr (List.map f xs)

let write_json path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string j);
      output_char oc '\n')

(* VmHWM of this process, in MiB *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> Float.nan
            | l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> go ()
          in
          go ())

(* ------------------------------------------------------------------ *)
(* workloads                                                          *)

(* Serve_open_loop only names the models the daemon's requests use
   (perfbench/loadgen.py), for the models.build_s layer metric *)
type workload = Meanfield_batch | Ctmc_finite_n | Serve_open_loop

let workload_of_string = function
  | "meanfield_batch" -> Meanfield_batch
  | "ctmc_finite_n" -> Ctmc_finite_n
  | "serve_open_loop" -> Serve_open_loop
  | w -> failwith ("umf_bench: unknown workload " ^ w)

let models_of = function
  | Meanfield_batch -> Registry.names
  | Ctmc_finite_n -> [ "sir"; "cholera" ]
  | Serve_open_loop -> [ "sir"; "sir3"; "sis"; "bike"; "cholera" ]

(* Set-up as a user pays it: the pool (ctmc_finite_n only) and the
   first Registry.find of every model the workload uses, which builds
   the model and compiles its drift, Jacobian and rate tapes.  The pool
   takes the library default of nproc - 1 workers (at least one): with
   the calling domain, which blocks in each section, the process runs
   nproc domains. *)
let setup w =
  let t0 = now () in
  let pool =
    match w with
    | Ctmc_finite_n -> Some (Pool.create ())
    | Meanfield_batch | Serve_open_loop -> None
  in
  let builds =
    List.map
      (fun name ->
        let t = now () in
        let m = Registry.find_exn name in
        (name, m, now () -. t))
      (models_of w)
  in
  (pool, builds, now () -. t0)

(* the result of one call, kept for the output checks *)
type outcome =
  | Bounds of Analysis.bounds
  | Hull of Hull.traj
  | Region of Analysis.region
  | Transient of E.transient
  | Envelope of E.envelope
  | Stationary of E.stationary
  | Passage of Analysis.first_passage

(* One call of a pass.  [op] names the benchmark span recorded around
   it and the per-op registry its library spans land in.  [width] is
   the certified bracket width as a share of the coordinate's clip-box
   range (None when the op returns no bracket). *)
type step = {
  op : string;
  label : string;  (* the model, for the per-call rows of the results *)
  run : Obs.t -> outcome;
  width : outcome -> float option;
}

(* Steps run in order; [checks] then sees their outcomes (same order)
   and returns (step index, check name, ok, detail) per check. *)
type group = {
  steps : step list;
  checks : outcome list -> (int * string * bool * string) list;
}

let range (m : Model.t) c =
  let b = Model.clip m in
  b.Optim.Box.hi.(c) -. b.Optim.Box.lo.(c)

let fmt_f = Printf.sprintf "%.17g"

(* ---- meanfield_batch ---------------------------------------------- *)

(* Grid of the Pontryagin and hull solvers; also the tape sweep size
   (steps + 1 rows per θ-vertex). *)
let mf_steps = 50

(* [a] contains [b] at every time of [times] up to [tol] *)
let contains ~tol ~times (alo, ahi) (blo, bhi) =
  let bad = ref None in
  Array.iteri
    (fun i t ->
      if !bad = None then
        if not (alo i <= blo i +. tol && bhi i <= ahi i +. tol) then
          bad :=
            Some
              (Printf.sprintf "t=%g: [%s, %s] not within [%s, %s] (tol %g)" t
                 (fmt_f (blo i)) (fmt_f (bhi i)) (fmt_f (alo i))
                 (fmt_f (ahi i)) tol))
    times;
  match !bad with None -> (true, "") | Some d -> (false, d)

let mf_model_group rng name m ~coord ~horizon =
  (* a seeded grid only where θ is 1-D: on bikenet's 3-D box the grid
     size moves the call across the median of the pass *)
  let grid = if Model.theta_dim m = 1 then [| 5; 7 |].(Rng.int rng 2) else 5 in
  let x0 = Model.x0 m in
  let spec ?(scenario = Analysis.Imprecise) obs =
    Analysis.spec ~scenario ~horizon ~steps:mf_steps ~obs m
  in
  let bounds_width = function
    | Bounds b -> Some (Cert.width b.Analysis.cert /. range m coord)
    | _ -> None
  in
  let steps =
    [
      {
        op = "bounds.imprecise";
        label = name;
        run =
          (fun obs -> Bounds (Analysis.transient_bounds (spec obs) ~x0 ~coord));
        width = bounds_width;
      };
      {
        op = "bounds.uncertain";
        label = name;
        run =
          (fun obs ->
            Bounds
              (Analysis.transient_bounds
                 (spec ~scenario:(Analysis.Uncertain grid) obs)
                 ~x0 ~coord));
        width = bounds_width;
      };
      {
        op = "hull";
        label = name;
        run =
          (fun obs ->
            (* clipped to the model's domain, as umf_cli hull does, at
               the CLI's default hull step *)
            Hull
              (Analysis.hull_bounds ~clip:(Model.clip m)
                 (Analysis.spec ~horizon ~dt:0.02 ~obs m)
                 ~x0));
        width =
          (function
          | Hull tr ->
              Some (Cert.width (Hull.final_certs tr).(coord) /. range m coord)
          | _ -> None);
      };
    ]
  in
  (* scenario hierarchy: hull ⊇ Pontryagin (imprecise) ⊇ uncertain
     sweep at every sample time, up to the enclosed result's own
     certificate budget *)
  let checks = function
    | [ Bounds imp; Bounds unc; Hull tr ] ->
        let last = Array.length tr.Hull.times - 1 in
        let finite v = Array.for_all Float.is_finite v in
        let hull_finite = finite tr.Hull.lower.(last) && finite tr.Hull.upper.(last) in
        let times = imp.Analysis.times in
        let tol_unc = Cert.total imp.Analysis.cert +. Cert.total unc.Analysis.cert in
        let ok1, d1 =
          contains ~tol:tol_unc ~times
            ((fun i -> imp.Analysis.lower.(i)), fun i -> imp.Analysis.upper.(i))
            ((fun i -> unc.Analysis.lower.(i)), fun i -> unc.Analysis.upper.(i))
        in
        let ok2, d2 =
          contains ~tol:(Cert.total imp.Analysis.cert) ~times
            ( (fun i -> (Hull.lower_at tr times.(i)).(coord)),
              fun i -> (Hull.upper_at tr times.(i)).(coord) )
            ((fun i -> imp.Analysis.lower.(i)), fun i -> imp.Analysis.upper.(i))
        in
        [
          (0, name ^ ": pontryagin contains uncertain", ok1, d1);
          (2, name ^ ": hull contains pontryagin", ok2, d2);
          (2, name ^ ": hull bounds finite", hull_finite, "");
        ]
    | _ -> [ (0, name ^ ": outcome shape", false, "unexpected outcomes") ]
  in
  { steps; checks }

let mf_steady_group name m =
  let x_start = Vec.create (Model.dim m) 0.4 in
  {
    steps =
      [
        {
          op = "steady";
          label = name;
          run =
            (fun obs ->
              Region
                (Analysis.steady_state_region_2d ~x_start
                   (Analysis.spec ~obs m)));
          width = (fun _ -> None);
        };
      ];
    checks =
      (function
      | [ Region r ] ->
          let ok = Float.is_finite r.Analysis.area && r.Analysis.area > 0. in
          [ (0, name ^ ": steady region has positive area", ok,
             Printf.sprintf "area %g" r.Analysis.area) ]
      | _ -> [ (0, name ^ ": outcome shape", false, "unexpected outcomes") ]);
  }

(* Model k of the catalogue is queried on coordinate k mod dim at
   horizon 1.5, 2 or 2.5 (k mod 3): Pontryagin's sweep count reacts
   sharply to the horizon, so a seeded horizon would make the cost of a
   pass depend on the seed.  The seed draws the θ-grid sizes of the
   1-D θ models and the order of the groups. *)
let meanfield_pass rng builds =
  let groups =
    List.mapi
      (fun k (name, m, _) ->
        mf_model_group rng name m ~coord:(k mod Model.dim m)
          ~horizon:[| 1.5; 2.; 2.5 |].(k mod 3))
      builds
  in
  let steady =
    (* the Birkhoff centre on SIR takes ~2 s; on gps-poisson, the other
       2-D model, ~10 s, a third of a run *)
    List.filter_map
      (fun (name, m, _) ->
        if name = "sir" then Some (mf_steady_group name m) else None)
      builds
  in
  groups @ steady

(* ---- ctmc_finite_n ------------------------------------------------ *)

let ctmc_pass rng builds pool =
  let model name =
    Option.get (List.find_map (fun (n, m, _) -> if n = name then Some m else None) builds)
  in
  let sir = model "sir" and cholera = model "cholera" in
  let coord = 1 in
  let n = 200 in
  let horizon = Rng.float_range rng 1.98 2.02 in
  let espec ?scenario ?truncation ?steps ~n ~horizon m obs =
    E.spec ?scenario ?truncation ?steps ~horizon ~pool ~obs ~n m
  in
  let final_width (certs : Cert.t array) m c =
    Some (Cert.width certs.(Array.length certs - 1) /. range m c)
  in
  let transient_width m = function
    | Transient r ->
        final_width (Array.map (fun row -> row.(0)) r.E.certs) m coord
    | _ -> None
  in
  (* SIR at N≈200 (~20k states): exact, then adaptive truncation at
     half the lattice, whose bracket must contain the exact value *)
  let sir_transient =
    {
      steps =
        [
          {
            op = "transient.exact";
            label = "sir";
            run =
              (fun obs ->
                Transient
                  (E.transient (espec ~n ~horizon sir obs)
                     ~rewards:[| E.Coord coord |]));
            width = transient_width sir;
          };
          {
            op = "transient.adaptive";
            label = "sir";
            run =
              (fun obs ->
                Transient
                  (E.transient
                     (espec
                        ~truncation:(E.Adaptive { max_states = 10_000 })
                        ~n ~horizon sir obs)
                     ~rewards:[| E.Coord coord |]));
            width = transient_width sir;
          };
        ];
      checks =
        (function
        | [ Transient ex; Transient ad ] ->
            let bad = ref None in
            Array.iteri
              (fun j t ->
                let v = ex.E.value.(j).(0) in
                let lo = ad.E.lower.(j).(0) and hi = ad.E.upper.(j).(0) in
                if !bad = None && not (lo -. 1e-9 <= v && v <= hi +. 1e-9)
                then
                  bad :=
                    Some
                      (Printf.sprintf "t=%g: exact %s outside [%s, %s]" t
                         (fmt_f v) (fmt_f lo) (fmt_f hi)))
              ex.E.times;
            [
              ( 1,
                "sir: adaptive bracket contains exact",
                !bad = None,
                Option.value ~default:"" !bad );
            ]
        | _ -> [ (0, "sir: outcome shape", false, "unexpected outcomes") ]);
    }
  in
  let envelope_check name = function
    | [ Envelope e ] ->
        let ok = ref true in
        Array.iteri
          (fun j _ ->
            if
              not
                (e.E.lower.(j) <= e.E.mean.(j) +. 1e-9
                && e.E.mean.(j) <= e.E.upper.(j) +. 1e-9)
            then ok := false)
          e.E.times;
        [ (0, name ^ ": envelope lower <= mean <= upper", !ok, "") ]
    | _ -> [ (0, name ^ ": outcome shape", false, "unexpected outcomes") ]
  in
  let envelope_width m = function
    | Envelope e -> final_width e.E.certs m coord
    | _ -> None
  in
  let single ?(label = "sir") op run width checks =
    { steps = [ { op; label; run; width } ]; checks }
  in
  let env_n = 60 and imp_n = 30 and chol_n = 50 and stat_n = 50 in
  let fp_horizon = Rng.float_range rng 1.24 1.26 in
  let fp_level = Rng.float_range rng 0.45 0.55 in
  [
    sir_transient;
    single "envelope.uncertain"
      (fun obs ->
        Envelope
          (E.envelope
             (espec ~scenario:(E.Uncertain 3) ~n:env_n ~horizon sir obs)
             ~reward:(E.Coord coord)))
      (envelope_width sir) (envelope_check "sir uncertain");
    single "envelope.imprecise"
      (fun obs ->
        Envelope
          (E.envelope
             (espec ~steps:200 ~n:imp_n ~horizon sir obs)
             ~reward:(E.Coord coord)))
      (envelope_width sir) (envelope_check "sir imprecise");
    single ~label:"cholera" "transient.cholera_adaptive"
      (fun obs ->
        Transient
          (E.transient
             (espec
                ~truncation:(E.Adaptive { max_states = 20_000 })
                ~n:chol_n ~horizon cholera obs)
             ~rewards:[| E.Coord coord |]))
      (transient_width cholera)
      (function
        | [ Transient r ] ->
            let j = Array.length r.E.times - 1 in
            let ok = r.E.lower.(j).(0) <= r.E.upper.(j).(0) in
            [ (0, "cholera: adaptive bracket ordered", ok, "") ]
        | _ -> [ (0, "cholera: outcome shape", false, "unexpected outcomes") ]);
    single "stationary"
      (fun obs ->
        Stationary
          (E.stationary (espec ~n:stat_n ~horizon sir obs)
             ~rewards:[| E.Coord coord |]))
      (function
        | Stationary s ->
            Some (Cert.width s.E.certs.(0) /. range sir coord)
        | _ -> None)
      (function
        | [ Stationary s ] ->
            let v = s.E.values.(0) in
            [ (0, "sir: stationary value in range", v >= 0. && v <= 1.,
               fmt_f v) ]
        | _ -> [ (0, "sir: outcome shape", false, "unexpected outcomes") ]);
    single "first_passage"
      (fun obs ->
        let times = Array.init 11 (fun i -> fp_horizon *. float_of_int i /. 10.) in
        Passage
          (Analysis.first_passage
             (Analysis.spec ~horizon:fp_horizon ~pool ~obs sir)
             ~times ~epsilon:0.05 ~n:5
             ~target:(fun x -> x.(coord) >= fp_level)))
      (function
        | Passage p ->
            let j = Array.length p.Analysis.times - 1 in
            Some (p.Analysis.hit_upper.(j) -. p.Analysis.hit_lower.(j))
        | _ -> None)
      (function
        | [ Passage p ] ->
            let lo = p.Analysis.hit_lower and hi = p.Analysis.hit_upper in
            let ordered = ref (p.Analysis.mfpt_lower <= p.Analysis.mfpt_upper) in
            let monotone = ref true in
            Array.iteri
              (fun j _ ->
                if not (0. <= lo.(j) && lo.(j) <= hi.(j) && hi.(j) <= 1.) then
                  ordered := false;
                if j > 0 && (lo.(j) < lo.(j - 1) || hi.(j) < hi.(j - 1)) then
                  monotone := false)
              lo;
            [
              (0, "first passage: bounds ordered", !ordered, "");
              (0, "first passage: bounds monotone in time", !monotone, "");
            ]
        | _ -> [ (0, "first passage: outcome shape", false, "unexpected") ]);
  ]

(* ------------------------------------------------------------------ *)
(* the closed loop                                                    *)

type sample = {
  s_op : string;
  s_label : string;
  lat : float;
  repeat : bool;  (* inputs equal to an earlier call of this run *)
  ok : bool;
  s_width : float option;
}

type tracer = {
  aggs : (string, Obs.Agg.t) Hashtbl.t;  (* one registry per op *)
  trace : Obs.Trace.t;
}

let op_agg tr op =
  match Hashtbl.find_opt tr.aggs op with
  | Some a -> a
  | None ->
      let a = Obs.Agg.create () in
      Hashtbl.replace tr.aggs op a;
      a

(* Runs one pass; returns its samples, failed checks and wall time. *)
let run_pass ?tracer ~pass ~pool groups =
  let samples = ref [] and failures = ref [] in
  let t_pass = now () in
  List.iter
    (fun g ->
      let outs =
        List.map
          (fun st ->
            let obs, agg =
              match tracer with
              | None -> (Obs.off, None)
              | Some tr ->
                  let a = op_agg tr st.op in
                  (Obs.make ~agg:a ~trace:tr.trace (), Some a)
            in
            (match pool with Some p -> Pool.set_obs p obs | None -> ());
            let t0 = now () in
            let r = try Ok (st.run obs) with e -> Error e in
            let lat = now () -. t0 in
            Option.iter
              (fun a ->
                Obs.Agg.record_span a ("bench." ^ st.op) ~dur:lat;
                (* the engine reports envelope sweep steps on the
                   result only *)
                match r with
                | Ok (Envelope e) ->
                    Obs.Agg.record_counter a "envelope.sweep_steps"
                      (float_of_int e.E.sweep_steps)
                | _ -> ())
              agg;
            (st, r, lat))
          g.steps
      in
      let results = List.map (fun (_, r, _) -> r) outs in
      let check_fail = Array.make (List.length outs) false in
      (if List.for_all Result.is_ok results then
         match g.checks (List.map Result.get_ok results) with
         | exception e ->
             Array.fill check_fail 0 (Array.length check_fail) true;
             failures := ("checks raised", Printexc.to_string e) :: !failures
         | checks ->
             List.iter
               (fun (i, name, ok, detail) ->
                 if not ok then begin
                   check_fail.(i) <- true;
                   failures := (name, detail) :: !failures
                 end)
               checks);
      List.iteri
        (fun i (st, r, lat) ->
          let ok, width =
            match r with
            | Ok o -> (
                match (st : step).width o with
                | w -> (not check_fail.(i), w)
                | exception e ->
                    failures := (st.op ^ " width", Printexc.to_string e) :: !failures;
                    (false, None))
            | Error e ->
                failures := (st.op ^ " raised", Printexc.to_string e) :: !failures;
                (false, None)
          in
          samples :=
            { s_op = st.op; s_label = st.label; lat; repeat = pass > 0; ok; s_width = width } :: !samples)
        outs)
    groups;
  (List.rev !samples, List.rev !failures, now () -. t_pass)

let gc_json (a : Gc.stat) (b : Gc.stat) =
  J.Obj
    [
      ("minor_words", num (b.Gc.minor_words -. a.Gc.minor_words));
      ("major_collections", int (b.Gc.major_collections - a.Gc.major_collections));
    ]

let agg_json a =
  J.Obj
    [
      ( "spans",
        J.Obj
          (List.map
             (fun (n, (s : Obs.Agg.span_stat)) ->
               ( n,
                 J.Obj
                   [ ("calls", int s.Obs.Agg.calls); ("total_s", num s.Obs.Agg.total) ] ))
             (Obs.Agg.span_stats a)) );
      ("counters", J.Obj (List.map (fun (n, v) -> (n, num v)) (Obs.Agg.counters a)));
      ( "gauges",
        J.Obj
          (List.map
             (fun (n, (g : Obs.Agg.gauge_stat)) -> (n, num g.Obs.Agg.g_max))
             (Obs.Agg.gauges a)) );
    ]

let stage_delta before after =
  List.map
    (fun (stage, (s : Runtime.stats)) ->
      let b =
        match List.assoc_opt stage before with
        | Some (b : Runtime.stats) -> b
        | None -> { s with Runtime.sections = 0; tasks = 0; wall = 0. }
      in
      ( stage,
        {
          s with
          Runtime.sections = s.Runtime.sections - b.Runtime.sections;
          tasks = s.Runtime.tasks - b.Runtime.tasks;
          wall = s.Runtime.wall -. b.Runtime.wall;
        } ))
    after

(* ------------------------------------------------------------------ *)
(* tape kernel: batch vs scalar evaluation of the drift plans         *)

let bytes_per_eval tape =
  let operands = function
    | Tape.V_neg _ | Tape.V_pow _ -> 1
    | Tape.V_add _ | Tape.V_sub _ | Tape.V_mul _ | Tape.V_div _ | Tape.V_min _
    | Tape.V_max _ ->
        2
    | Tape.V_ite _ | Tape.V_muladd _ | Tape.V_submul _ | Tape.V_mulsub _ -> 3
  in
  let nv, nt = Tape.input_dims tape in
  (* 8-byte floats: every operand read and result write of the
     workspace, plus loading the inputs and storing the outputs *)
  8
  * (Array.fold_left (fun acc (_, i) -> acc + operands i + 1) 0
       (Tape.instructions tape)
    + nv + nt + Tape.n_outputs tape)

let time_until ~min_s f =
  let reps = ref 0 and t0 = now () in
  while now () -. t0 < min_s do
    f ();
    incr reps
  done;
  (now () -. t0) /. float_of_int !reps

(* [rows m] is the workload's sweep size for model m *)
let tape_bench rng models ~rows =
  List.map
    (fun (name, m) ->
      let plan = Model.drift_plan m in
      let tape = Model.drift_tape m in
      let r = rows m in
      let d = Model.dim m and p = Model.theta_dim m in
      let clip = Model.clip m and th = Model.theta m in
      let pick (b : Optim.Box.t) i =
        Rng.float_range rng b.Optim.Box.lo.(i) (Float.max b.Optim.Box.lo.(i) b.Optim.Box.hi.(i))
      in
      let xs = Mat.init r d (fun _ j -> pick clip j) in
      let ths = Mat.init r p (fun _ j -> pick th j) in
      let out = Mat.zeros r (Tape.n_outputs tape) in
      let x = Vec.create d 0. and t = Vec.create p 0. in
      let o = Vec.create (Tape.n_outputs tape) 0. in
      let batch =
        time_until ~min_s:0.02 (fun () -> Tape.Plan.run_batch plan ~xs ~ths ~out)
      in
      let scalar =
        time_until ~min_s:0.02 (fun () ->
            for i = 0 to r - 1 do
              for j = 0 to d - 1 do x.(j) <- Mat.get xs i j done;
              for j = 0 to p - 1 do t.(j) <- Mat.get ths i j done;
              Tape.Plan.run plan ~x ~th:t ~out:o
            done)
      in
      ( name,
        J.Obj
          [
            ("rows", int r);
            ("instructions", int (Tape.n_instructions tape));
            ("batch_ns_per_eval", num (batch *. 1e9 /. float_of_int r));
            ("scalar_ns_per_eval", num (scalar *. 1e9 /. float_of_int r));
            ("computed_bytes_per_eval", int (bytes_per_eval tape));
          ] ))
    models

(* rows of one Pontryagin Hamiltonian sweep: grid points × θ-vertices *)
let sweep_rows ~steps m = (steps + 1) * (1 lsl Model.theta_dim m)

(* ------------------------------------------------------------------ *)
(* modes                                                              *)

let run_workload w ~seed ~seconds ~trace ~out =
  let pool, builds, _ = setup w in
  let rng = Rng.create seed in
  (* the input list is drawn once; every pass repeats it *)
  let groups =
    let g =
      match w with
      | Meanfield_batch -> meanfield_pass rng builds
      | Ctmc_finite_n -> ctmc_pass rng builds (Option.get pool)
      | Serve_open_loop -> failwith "umf_bench: serve_open_loop runs in run.py"
    in
    let a = Array.of_list g in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  in
  let trace_path = Filename.remove_extension out ^ ".trace.ndjson" in
  let tracer =
    if trace then
      Some
        {
          aggs = Hashtbl.create 16;
          trace = Obs.Trace.to_file ~flush_interval:1. trace_path;
        }
    else None
  in
  let samples = ref [] and failures = ref [] in
  let untraced_walls = ref [] and traced_walls = ref [] in
  let gc_traced = ref [] in
  let stages = ref (match pool with Some p -> Pool.stage_stats p | None -> []) in
  let stage_acc = Hashtbl.create 8 in
  let t0 = now () in
  let pass = ref 0 in
  (* whole passes until [seconds] elapse, at least two so that repeats
     exist; a traced run alternates an untraced and a traced pass over
     the same inputs, so the overhead is measured on equal work *)
  while now () -. t0 < seconds || !pass < 2 || (trace && !pass mod 2 = 1) do
    let traced = trace && !pass mod 2 = 1 in
    let g0 = Gc.quick_stat () in
    let s, f, wall =
      run_pass ?tracer:(if traced then tracer else None) ~pass:!pass ~pool groups
    in
    let g1 = Gc.quick_stat () in
    if traced then begin
      traced_walls := wall :: !traced_walls;
      gc_traced := (g0, g1) :: !gc_traced;
      match pool with
      | Some p ->
          let after = Pool.stage_stats p in
          List.iter
            (fun (stage, (d : Runtime.stats)) ->
              let s0, t0', w0 =
                Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt stage_acc stage)
              in
              Hashtbl.replace stage_acc stage
                (s0 + d.Runtime.sections, t0' + d.Runtime.tasks, w0 +. d.Runtime.wall))
            (stage_delta !stages after);
          stages := after
      | None -> ()
    end
    else begin
      untraced_walls := wall :: !untraced_walls;
      match pool with Some p -> stages := Pool.stage_stats p | None -> ()
    end;
    samples := !samples @ s;
    failures := !failures @ f;
    incr pass
  done;
  let elapsed = now () -. t0 in
  Option.iter (fun tr -> Obs.Trace.close tr.trace) tracer;
  let traced_json =
    match tracer with
    | None -> J.Null
    | Some tr ->
        let tape_rows =
          match w with
          | Meanfield_batch -> sweep_rows ~steps:mf_steps
          | Ctmc_finite_n | Serve_open_loop ->
              (* the generator's lattice at the SIR transient's N *)
              fun _ -> 20_301
        in
        J.Obj
          [
            ("passes", int (List.length !traced_walls));
            ( "ops",
              J.Obj
                (Hashtbl.fold (fun op a acc -> (op, agg_json a) :: acc) tr.aggs []
                |> List.sort compare) );
            ( "pool_stages",
              J.Obj
                (Hashtbl.fold
                   (fun stage (s, t, w) acc ->
                     ( stage,
                       J.Obj
                         [ ("sections", int s); ("tasks", int t); ("wall_s", num w) ] )
                     :: acc)
                   stage_acc []
                |> List.sort compare) );
            ("gc", arr (fun (a, b) -> gc_json a b) !gc_traced);
            ( "tape",
              J.Obj
                (tape_bench (Rng.create (seed + 1))
                   (List.map (fun (n, m, _) -> (n, m)) builds)
                   ~rows:tape_rows) );
            ("trace_file", str trace_path);
          ]
  in
  let report =
    J.Obj
      [
        ("seed", int seed);
        ("passes", int !pass);
        ("elapsed_s", num elapsed);
        ( "samples",
          arr
            (fun s ->
              J.Obj
                [
                  ("op", str s.s_op);
                  ("label", str s.s_label);
                  ("lat_s", num s.lat);
                  ("repeat", J.Bool s.repeat);
                  ("ok", J.Bool s.ok);
                  ("width", match s.s_width with Some x -> num x | None -> J.Null);
                ])
            !samples );
        ( "failures",
          arr (fun (n, d) -> J.Obj [ ("check", str n); ("detail", str d) ]) !failures );
        ("untraced_pass_s", arr num (List.rev !untraced_walls));
        ("traced_pass_s", arr num (List.rev !traced_walls));
        ("peak_rss_mb", num (peak_rss_mb ()));
        ("domains", int (match pool with Some p -> Pool.size p | None -> 0));
        ("ocaml_version", str Sys.ocaml_version);
        ("traced", traced_json);
      ]
  in
  Option.iter Pool.shutdown pool;
  write_json out report

let setup_mode w =
  let pool, builds, setup_s = setup w in
  Option.iter Pool.shutdown pool;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("setup_s", num setup_s);
            ("models_build_s", num (List.fold_left (fun a (_, _, d) -> a +. d) 0. builds));
          ]))

let tape_mode ~models ~steps ~out =
  let ms = List.map (fun n -> (n, Registry.find_exn n)) models in
  write_json out (J.Obj (tape_bench (Rng.create 1) ms ~rows:(sweep_rows ~steps)))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

(* Codec costs on the serve workload's own lines: parse every request
   line, fingerprint every analysis request, and re-render every
   successful response from its result/cert members (what a cache hit
   does).  Medians are taken by run.py. *)
let codec_mode ~requests ~responses ~out =
  let per_us f = time_until ~min_s:0.002 f *. 1e6 in
  let parse_us = ref [] and fp_us = ref [] and render_us = ref [] in
  List.iter
    (fun line ->
      parse_us := per_us (fun () -> ignore (Codec.of_line line)) :: !parse_us;
      match Codec.of_line line with
      | Ok (Codec.Analyze req) -> (
          match Codec.spec_of_request req with
          | spec ->
              fp_us :=
                per_us (fun () -> ignore (Codec.fingerprint spec req.Codec.op))
                :: !fp_us
          | exception Codec.Bad_request _ -> ())
      | _ -> ())
    (read_lines requests);
  List.iter
    (fun line ->
      match J.of_string line with
      | exception Failure _ -> ()
      | j -> (
          match (J.member "result" j, J.member "cert" j, J.member "ok" j) with
          | Some result, Some cert, Some (J.Bool true) ->
              let id = Option.value ~default:J.Null (J.member "id" j) in
              render_us :=
                per_us (fun () ->
                    ignore
                      (Codec.ok_response ~id ~cached:true ~wall_ms:0.1
                         ~queue_wait_ms:0. ~result ~cert))
                :: !render_us
          | _ -> ()))
    (read_lines responses);
  write_json out
    (J.Obj
       [
         ("parse_us", arr num !parse_us);
         ("fingerprint_us", arr num !fp_us);
         ("render_us", arr num !render_us);
       ])

let clip_mode () =
  let box (n, m) =
    let b = Model.clip m in
    ( n,
      J.Obj
        [
          ("lo", arr num (Array.to_list b.Optim.Box.lo));
          ("hi", arr num (Array.to_list b.Optim.Box.hi));
        ] )
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("ocaml_version", str Sys.ocaml_version);
            ("models", J.Obj (List.map box (Registry.all ())));
          ]))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> opt name rest
    | [] -> failwith ("umf_bench: missing " ^ name)
  in
  match args with
  | "setup" :: w :: _ -> setup_mode (workload_of_string w)
  | "run" :: w :: rest ->
      run_workload (workload_of_string w)
        ~seed:(int_of_string (opt "--seed" rest))
        ~seconds:(float_of_string (opt "--seconds" rest))
        ~trace:(opt "--trace" rest = "1")
        ~out:(opt "--out" rest)
  | "tape" :: rest ->
      tape_mode
        ~models:(String.split_on_char ',' (opt "--models" rest))
        ~steps:(int_of_string (opt "--steps" rest))
        ~out:(opt "--out" rest)
  | "codec" :: rest ->
      codec_mode ~requests:(opt "--requests" rest)
        ~responses:(opt "--responses" rest) ~out:(opt "--out" rest)
  | [ "clip" ] -> clip_mode ()
  | _ ->
      prerr_endline
        "usage: umf_bench.exe (setup W | run W --seed N --seconds S --trace \
         0|1 --out F | tape --models a,b --steps K --out F | codec \
         --requests F --responses F --out F | clip)";
      exit 2
