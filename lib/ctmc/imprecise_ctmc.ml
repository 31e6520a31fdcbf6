open Umf_numerics
module Pool = Umf_runtime.Runtime.Pool
module Obs = Umf_obs.Obs

type transition = { src : int; dst : int; rate : Vec.t -> float }

(* Static per-state row layout: merged destinations in ascending order
   (exactly the row [Generator.make] would produce) plus, for each
   transition of [by_src.(x)], the slot its rate accumulates into.
   Lets the simulator rebuild a state's outgoing row in O(out-degree)
   without constructing a [Generator.t]. *)
type row_layout = { dsts : int array; slot : int array }

type t = {
  n : int;
  theta : Optim.Box.t;
  by_src : transition array array;
  theta_vertices : Vec.t list;
  layout : row_layout array;
}

let layout_of_row row =
  let m = Array.length row in
  let sorted = Array.map (fun tr -> tr.dst) row in
  Array.sort compare sorted;
  let uniq = ref [] in
  Array.iteri
    (fun i d -> if i = 0 || d <> sorted.(i - 1) then uniq := d :: !uniq)
    sorted;
  let dsts = Array.of_list (List.rev !uniq) in
  let index_of d =
    let lo = ref 0 and hi = ref (Array.length dsts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if dsts.(mid) < d then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let slot = Array.make m 0 in
  Array.iteri (fun i tr -> slot.(i) <- index_of tr.dst) row;
  { dsts; slot }

let make ~n ~theta transitions =
  if n <= 0 then invalid_arg "Imprecise_ctmc.make: need n > 0";
  let acc = Array.make n [] in
  List.iter
    (fun tr ->
      if tr.src < 0 || tr.src >= n || tr.dst < 0 || tr.dst >= n then
        invalid_arg "Imprecise_ctmc.make: state out of range";
      if tr.src = tr.dst then invalid_arg "Imprecise_ctmc.make: self loop";
      acc.(tr.src) <- tr :: acc.(tr.src))
    transitions;
  let by_src = Array.map Array.of_list acc in
  {
    n;
    theta;
    by_src;
    theta_vertices = Optim.Box.vertices theta;
    layout = Array.map layout_of_row by_src;
  }

let n_states m = m.n

let theta_box m = m.theta

let generator_at m theta =
  let triples = ref [] in
  Array.iter
    (Array.iter (fun tr ->
         let r = tr.rate theta in
         if r < 0. then invalid_arg "Imprecise_ctmc: negative rate at theta";
         if r > 0. then triples := (tr.src, tr.dst, r) :: !triples))
    m.by_src;
  Generator.make ~n:m.n !triples

(* (Q^θ g)(x) for a given state x: the backward operator row *)
let row_value m g x theta =
  Array.fold_left
    (fun acc tr -> acc +. (tr.rate theta *. (g.(tr.dst) -. g.(x))))
    0. m.by_src.(x)

let max_exit_bound m =
  (* conservative uniformisation rate: max over θ-vertices of the exit
     rates (exact for rates monotone in θ, e.g. affine) *)
  let best = ref 1e-9 in
  for x = 0 to m.n - 1 do
    List.iter
      (fun theta ->
        let e =
          Array.fold_left (fun acc tr -> acc +. tr.rate theta) 0. m.by_src.(x)
        in
        if e > !best then best := e)
      m.theta_vertices
  done;
  !best

let steps_for ?steps_per_unit ~lambda duration =
  let per_unit =
    match steps_per_unit with
    | Some s ->
        if s <= 0 then invalid_arg "Imprecise_ctmc: steps_per_unit <= 0";
        float_of_int s
    | None -> Float.max 100. (10. *. lambda)
  in
  let steps = int_of_float (Float.ceil (duration *. per_unit)) in
  let steps = Stdlib.max steps 1 in
  (* stability guard: the Euler step of the backward equation is a
     convex combination of the current values iff dt·λ <= 1, which is
     what keeps the envelope inside [min h, max h]; auto-refine a too
     coarse user grid instead of letting the sweep blow up *)
  Stdlib.max steps (int_of_float (Float.ceil (duration *. lambda)))

(* Integrate d/dt g(x) = extremum_θ (Q^θ g)(x) for [duration], clamping
   each step to the invariant envelope [hmin, hmax] (under the dt·λ <= 1
   guard the clamp only trims float rounding).  Two swapped buffers
   instead of an allocation per step; each state's value is computed by
   the same per-x arithmetic as before into an index-owned slot, so any
   chunking over a pool is bit-identical to the sequential sweep. *)
let sweep_chunk = 1024

let step_body pick m ~dt ~hmin ~hmax cur nxt lo hi =
  for x = lo to hi - 1 do
    (* extremise the backward operator over the θ-vertices *)
    let best = ref None in
    List.iter
      (fun theta ->
        let v = row_value m cur x theta in
        best := Some (match !best with None -> v | Some b -> pick v b))
      m.theta_vertices;
    let rate = match !best with None -> 0. | Some v -> v in
    let v = cur.(x) +. (dt *. rate) in
    nxt.(x) <- (if v < hmin then hmin else if v > hmax then hmax else v)
  done

let step_once ?pool pick m ~dt ~hmin ~hmax cur nxt =
  match pool with
  | Some p when m.n > sweep_chunk ->
      let n_chunks = (m.n + sweep_chunk - 1) / sweep_chunk in
      Pool.parallel_for ~stage:"ctmc-backward" ~chunk:1 p n_chunks (fun ci ->
          let lo = ci * sweep_chunk in
          step_body pick m ~dt ~hmin ~hmax cur nxt lo
            (Stdlib.min m.n (lo + sweep_chunk)))
  | _ -> step_body pick m ~dt ~hmin ~hmax cur nxt 0 m.n

let euler_sweep ?pool ?(obs = Obs.off) pick m ~g ~duration ~steps ~hmin ~hmax =
  if duration > 0. then begin
    let dt = duration /. float_of_int steps in
    let sp = Obs.span_begin obs "ctmc.imprecise_sweep" in
    let cur = ref !g and nxt = ref (Vec.zeros m.n) in
    for _ = 1 to steps do
      let c = !cur and nx = !nxt in
      step_once ?pool pick m ~dt ~hmin ~hmax c nx;
      cur := nx;
      nxt := c
    done;
    g := !cur;
    if Obs.enabled obs then
      Obs.span_end
        ~metrics:
          [
            ("steps", float_of_int steps);
            ("rows", float_of_int (m.n * steps));
          ]
        obs sp
    else Obs.span_end obs sp
  end

let picker = function
  | `Lower -> fun a b -> Float.min a b
  | `Upper -> fun a b -> Float.max a b

type sense = [ `Lower | `Upper ]

type sweep = {
  values : Vec.t array;
  eps : float array;
  rounding : float array;
  steps : int;
}

let check_times times =
  let nt = Array.length times in
  if nt = 0 then invalid_arg "Imprecise_ctmc: no times";
  if times.(0) < 0. then invalid_arg "Imprecise_ctmc: negative horizon";
  for j = 1 to nt - 1 do
    if times.(j) <= times.(j - 1) then
      invalid_arg "Imprecise_ctmc: times not increasing"
  done

let osc g =
  let lo = ref g.(0) and hi = ref g.(0) in
  Array.iter
    (fun x ->
      if x < !lo then lo := x;
      if x > !hi then hi := x)
    g;
  !hi -. !lo

(* Per-step floating-point error of the clamped Euler update, bounded
   coarsely but finitely: each of the <= max_row rate/difference
   accumulations per vertex, the vertex extremisation and the final
   axpy contribute O(eps_mach) relative to the working magnitude
   M = max(|h|_inf, λ·osc h).  Propagation does not amplify under the
   dt·λ <= 1 convex-combination regime (the step is nonexpansive), so
   the total is steps · ρ. *)
let rounding_per_step m ~hmin ~hmax ~lambda =
  let max_row =
    Array.fold_left
      (fun acc row -> Stdlib.max acc (Array.length row))
      0 m.by_src
  in
  let n_vert = List.length m.theta_vertices in
  let scale = Float.max (Float.abs hmin) (Float.abs hmax) in
  let magnitude = Float.max scale (lambda *. (hmax -. hmin)) in
  float_of_int ((3 * max_row * n_vert) + 4) *. epsilon_float *. magnitude

(* A-priori Euler error of one segment at fixed step size δ:
   the local truncation error of d/dt g = Q̲g is
   ‖g(t+δ) − (g(t) + δ Q̲g(t))‖ <= δ²λ²·osc(g) (the second derivative of
   the backward flow is bounded by ‖Q̲(Q̲g)‖ <= 2λ·‖Q̲g‖ <= 2λ²·osc g,
   halved by the Taylor remainder), and the exact and Euler flows are
   both nonexpansive for δλ <= 1, so local errors sum.  osc(g) is
   nonincreasing along the sweep (each step is a per-state convex
   combination), so the segment-start oscillation bounds every step. *)
let fixed_series ?pool ?obs ?steps_per_unit ~sense m ~h ~times =
  if Vec.dim h <> m.n then
    invalid_arg "Imprecise_ctmc: reward dimension mismatch";
  check_times times;
  let lambda = max_exit_bound m in
  let hmin = Vec.min_elt h and hmax = Vec.max_elt h in
  let rho = rounding_per_step m ~hmin ~hmax ~lambda in
  let pick = picker sense in
  let g = ref (Vec.copy h) in
  let prev = ref 0. in
  let err = ref 0. and rnd = ref 0. and total_steps = ref 0 in
  let nt = Array.length times in
  let values = Array.make nt [||] in
  let eps = Array.make nt 0. and rounding = Array.make nt 0. in
  (* the backward equation is autonomous, so one sweep up to the
     largest horizon serves every time point: integrate segment by
     segment and snapshot *)
  Array.iteri
    (fun j t ->
      let duration = t -. !prev in
      if duration > 0. then begin
        let steps = steps_for ?steps_per_unit ~lambda duration in
        let v = osc !g in
        let dt = duration /. float_of_int steps in
        err := !err +. (duration *. dt *. lambda *. lambda *. v);
        rnd := !rnd +. (float_of_int steps *. rho);
        total_steps := !total_steps + steps;
        euler_sweep ?pool ?obs pick m ~g ~duration ~steps ~hmin ~hmax
      end;
      prev := t;
      values.(j) <- Vec.copy !g;
      eps.(j) <- !err;
      rounding.(j) <- !rnd)
    times;
  { values; eps; rounding; steps = !total_steps }

(* Erreygers–De Bock adaptive step selection: spend the error budget at
   a constant rate ε/T per unit time.  With current oscillation v the
   local error of a δ-step is <= δ²λ²v, so per-unit-time error δλ²v
   stays within the rate iff δ <= rate/(λ²v); δ is additionally capped
   by the 1/λ stability bound and the remaining segment.  A constant g
   (v = 0) is a fixed point of the sweep — jump straight to the next
   snapshot. *)
let adaptive_max_steps = 20_000_000

let adaptive_series ?pool ?(obs = Obs.off) ~epsilon ~sense m ~h ~times =
  if Vec.dim h <> m.n then
    invalid_arg "Imprecise_ctmc: reward dimension mismatch";
  if not (epsilon > 0.) then
    invalid_arg "Imprecise_ctmc.adaptive_series: need epsilon > 0";
  check_times times;
  let lambda = max_exit_bound m in
  let hmin = Vec.min_elt h and hmax = Vec.max_elt h in
  let rho = rounding_per_step m ~hmin ~hmax ~lambda in
  let pick = picker sense in
  let nt = Array.length times in
  let t_max = times.(nt - 1) in
  let rate = if t_max > 0. then epsilon /. t_max else infinity in
  let cur = ref (Vec.copy h) and nxt = ref (Vec.zeros m.n) in
  let err = ref 0. and rnd = ref 0. and total_steps = ref 0 in
  let values = Array.make nt [||] in
  let eps = Array.make nt 0. and rounding = Array.make nt 0. in
  let sp = Obs.span_begin obs "ctmc.imprecise_sweep.adaptive" in
  let prev = ref 0. in
  Array.iteri
    (fun j t ->
      let t_rem = ref (t -. !prev) in
      while !t_rem > 0. do
        let v = osc !cur in
        if v <= 0. then t_rem := 0.
        else begin
          let dt =
            Float.min !t_rem
              (Float.min (1. /. lambda) (rate /. (lambda *. lambda *. v)))
          in
          if !total_steps >= adaptive_max_steps then
            failwith
              "Imprecise_ctmc.adaptive_series: step budget exhausted (epsilon \
               too small for this chain's exit rates)";
          let c = !cur and nx = !nxt in
          step_once ?pool pick m ~dt ~hmin ~hmax c nx;
          cur := nx;
          nxt := c;
          err := !err +. (dt *. dt *. lambda *. lambda *. v);
          rnd := !rnd +. rho;
          incr total_steps;
          t_rem := !t_rem -. dt
        end
      done;
      prev := t;
      values.(j) <- Vec.copy !cur;
      eps.(j) <- !err;
      rounding.(j) <- !rnd)
    times;
  if Obs.enabled obs then
    Obs.span_end
      ~metrics:
        [
          ("steps", float_of_int !total_steps);
          ("eps", !err);
          ("rows", float_of_int (m.n * !total_steps));
        ]
      obs sp
  else Obs.span_end obs sp;
  { values; eps; rounding; steps = !total_steps }

let absorbing m ~target =
  let trs = ref [] in
  Array.iter
    (Array.iter (fun tr -> if not (target tr.src) then trs := tr :: !trs))
    m.by_src;
  make ~n:m.n ~theta:m.theta !trs

type policy = t:float -> x:int -> Vec.t

let constant_policy theta ~t:_ ~x:_ = theta

(* Rebuild state [x]'s merged outgoing row at θ into [rates]
   (accumulation order matches [generator_at]'s duplicate merge, so
   summed rates are bit-identical to the Generator path). *)
let fill_row m rates x theta =
  Array.fill rates 0 (Array.length rates) 0.;
  let lay = m.layout.(x) in
  Array.iteri
    (fun i tr ->
      let r = tr.rate theta in
      if r < 0. then invalid_arg "Imprecise_ctmc: negative rate at theta";
      rates.(lay.slot.(i)) <- rates.(lay.slot.(i)) +. r)
    m.by_src.(x)

let simulate ?(cache = 64) rng m policy ~x0 ~tmax =
  if cache < 0 then invalid_arg "Imprecise_ctmc.simulate: cache < 0";
  (* per-θ cache of fully materialised rate rows — for (near-)constant
     policies every jump after the first is a table lookup instead of a
     full generator rebuild.  On overflow (more distinct θ than [cache]
     slots, e.g. a time-continuous policy) only the current state's row
     is rebuilt, into a reused scratch buffer. *)
  let tbl : (Vec.t, float array array) Hashtbl.t =
    Hashtbl.create (Stdlib.max 1 (Stdlib.min cache 64))
  in
  let scratch =
    Array.map (fun lay -> Array.make (Array.length lay.dsts) 0.) m.layout
  in
  let rates_for theta x =
    match Hashtbl.find_opt tbl theta with
    | Some rows -> rows.(x)
    | None ->
        if Hashtbl.length tbl < cache then begin
          let rows =
            Array.map
              (fun lay -> Array.make (Array.length lay.dsts) 0.)
              m.layout
          in
          for s = 0 to m.n - 1 do
            fill_row m rows.(s) s theta
          done;
          Hashtbl.add tbl (Vec.copy theta) rows;
          rows.(x)
        end
        else begin
          fill_row m scratch.(x) x theta;
          scratch.(x)
        end
  in
  Simulate.run_imprecise_rows
    ~rate_bound:(max_exit_bound m *. 1.000001)
    rng
    (fun ~t ~x ->
      let theta = Optim.Box.clamp m.theta (policy ~t ~x) in
      (m.layout.(x).dsts, rates_for theta x))
    ~x0 ~tmax
