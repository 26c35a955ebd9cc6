(** Turn simulated core activity into chip power and sensor readings —
    the EnergyScale/TPMD stand-in. Consumes {!Energy_table} (the ground
    truth); everything downstream sees only the returned samples. *)

type reading = {
  true_power : float;      (** noiseless chip power (internal, for tests) *)
  sensor_mean : float;     (** mean of the sampled sensor trace *)
  trace : float array;     (** individual 1-ms-style sensor samples *)
}

val sample :
  table:Energy_table.t ->
  rng:Mp_util.Rng.t ->
  ?windows:int ->
  config:Mp_uarch.Uarch_def.config ->
  activity:Core_sim.activity ->
  unit ->
  reading
(** Noiseless chip power for one core's measured activity replicated
    over [config.cores] cores, with sensor noise applied over [windows]
    (default 24) sampling windows. *)

val idle_power : table:Energy_table.t -> config:Mp_uarch.Uarch_def.config -> float
(** Chip power with enabled-but-idle cores — what a measurement of an
    empty machine reports (before sensor noise). *)
