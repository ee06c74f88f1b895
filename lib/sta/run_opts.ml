module Interval = Ssd_util.Interval
module Obs = Ssd_obs.Obs

type pi_spec = { pi_arrival : Interval.t; pi_tt : Interval.t }

let default_pi_spec =
  {
    pi_arrival = Interval.point 0.;
    pi_tt = Interval.make 0.15e-9 0.5e-9;
  }

type t = {
  jobs : int;
  obs : Obs.t;
  pi_spec : pi_spec;
  corners : int;
  mc_batch : int;
}

let default =
  {
    jobs = 1;
    obs = Obs.disabled;
    pi_spec = default_pi_spec;
    corners = 1;
    mc_batch = 16;
  }

(* ---- builder ----

   New call sites grow a record from [default] through [with_*] and
   funnel it through [validate]; the field checks live in exactly one
   place, shared by [make] (which raises) and the serve daemon (which
   turns the [Error] into a protocol error response). *)

let with_jobs jobs t = { t with jobs }
let with_obs obs t = { t with obs }
let with_pi_spec pi_spec t = { t with pi_spec }
let with_corners corners t = { t with corners }
let with_mc_batch mc_batch t = { t with mc_batch }

let validate_pi_spec spec =
  let finite_iv iv = Float.is_finite (Interval.lo iv) && Float.is_finite (Interval.hi iv) in
  if not (finite_iv spec.pi_arrival && finite_iv spec.pi_tt) then
    Error "pi_spec windows must be finite"
  else if Interval.lo spec.pi_tt < 0. then
    Error "pi_spec transition-time window must be non-negative"
  else Ok spec

let validate t =
  if t.corners < 1 then Error "corners < 1"
  else if t.mc_batch < 1 then Error "mc_batch < 1"
  else Result.map (fun _ -> t) (validate_pi_spec t.pi_spec)

let make ?(jobs = 1) ?(obs = Obs.disabled) ?(pi_spec = default_pi_spec)
    ?(corners = 1) ?(mc_batch = 16) () =
  match validate { jobs; obs; pi_spec; corners; mc_batch } with
  | Ok t -> t
  | Error msg -> invalid_arg ("Run_opts.make: " ^ msg)
