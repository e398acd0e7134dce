//! Production traffic shapes for the open-loop driver: composable
//! arrival processes, per-function popularity skew, and multi-tenant
//! request classes with SLO targets.
//!
//! The paper evaluates MicroFaaS under two synthetic arrivals (a fixed
//! per-second batch and a Poisson stream). Real FaaS traffic is
//! bursty, diurnal, and heavy-tailed in which functions get called —
//! the taxonomy SeBS formalizes for serverless benchmarking — and
//! policies that look equivalent under steady load separate sharply
//! under those shapes (see `docs/WORKLOADS.md` for each generative
//! model and `docs/SCHEDULING.md` for the break-even that flips).
//!
//! Everything here draws from the caller-provided simulation [`Rng`]
//! at fixed sites, so runs remain bit-for-bit deterministic per seed
//! and identical across `--jobs` settings. The legacy processes
//! ([`ArrivalProcess::Poisson`], [`ArrivalProcess::EverySecond`]) with
//! [`Popularity::Uniform`] and no tenants reproduce the historical
//! draw sequence exactly — the `sched_compat` goldens pin this.
//!
//! # Examples
//!
//! Generate inter-arrival gaps directly (the open-loop engine does the
//! same thing per [`ArrivalProcess::batch`] of jobs):
//!
//! ```
//! use microfaas::arrivals::{ArrivalProcess, ArrivalState};
//! use microfaas_sim::{Rng, SimTime};
//!
//! let process = ArrivalProcess::Mmpp {
//!     calm_per_second: 0.1,
//!     burst_per_second: 5.0,
//!     mean_calm_s: 120.0,
//!     mean_burst_s: 15.0,
//! };
//! let mut rng = Rng::new(7);
//! let mut state = ArrivalState::default();
//! let mut now = SimTime::ZERO;
//! for _ in 0..100 {
//!     now = now + process.next_gap(now, &mut rng, &mut state);
//! }
//! assert!(now > SimTime::ZERO);
//! ```

use microfaas_sim::{json, CdfTable, OnlineStats, Rng, SimDuration, SimTime};
use microfaas_workloads::FunctionId;

/// How invocations arrive at the orchestration plane.
///
/// Each variant is a seeded generative model; [`ArrivalProcess::next_gap`]
/// draws the time to the next arrival event from the simulation RNG.
/// Parse CLI spec strings with [`ArrivalProcess::parse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at the given mean rate.
    Poisson {
        /// Mean arrivals per second.
        per_second: f64,
    },
    /// The paper's literal description: a fixed batch of jobs added
    /// every second.
    EverySecond {
        /// Jobs added per one-second tick.
        jobs_per_tick: usize,
    },
    /// Markov-modulated Poisson process with two states — a calm
    /// baseline and a burst regime — switching after exponentially
    /// distributed dwell times. The classic bursty-traffic model:
    /// inter-arrival gaps have coefficient of variation above 1.
    Mmpp {
        /// Mean arrivals per second while calm.
        calm_per_second: f64,
        /// Mean arrivals per second while bursting.
        burst_per_second: f64,
        /// Mean dwell in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell in the burst state, seconds.
        mean_burst_s: f64,
    },
    /// Sinusoidal rate modulation around a mean — the day/night cycle:
    /// `rate(t) = mean · (1 + amplitude · sin(2πt / period))`, sampled
    /// by Lewis–Shedler thinning against the peak rate.
    Diurnal {
        /// Long-run mean arrivals per second.
        mean_per_second: f64,
        /// Relative swing in `[0, 1]`: 0 is steady Poisson, 1 touches
        /// zero at the trough.
        relative_amplitude: f64,
        /// Cycle length, seconds.
        period_s: f64,
    },
    /// A piecewise-constant rate step: baseline traffic with one spike
    /// window (a launch, a retweet, a cache stampede), sampled by
    /// thinning against the higher of the two rates.
    FlashCrowd {
        /// Mean arrivals per second outside the spike.
        base_per_second: f64,
        /// Spike onset, seconds from run start.
        spike_at_s: f64,
        /// Spike length, seconds.
        spike_duration_s: f64,
        /// Mean arrivals per second inside the spike.
        spike_per_second: f64,
    },
}

/// Most generator steps one arrival may cost on average: regime
/// switches per arrival for [`ArrivalProcess::Mmpp`], thinning proposals
/// per arrival at the lower rate for [`ArrivalProcess::FlashCrowd`].
/// Past it a run's time goes to the generator, not to the load it
/// offers: `mmpp:1,1,1e-9,1e-9` switches regime 10^9 times per arrival
/// and `flash:1,10,0.000001,1e8` proposes 10^8 arrivals per one it
/// accepts, so neither finishes. Every spec the repository uses needs
/// at most 200.
const MAX_STEPS_PER_ARRIVAL: f64 = 1e4;

/// Mutable per-run generator state ([`ArrivalProcess::Mmpp`]'s current
/// regime). Every run starts calm; the engine keeps one value per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrivalState {
    in_burst: bool,
}

impl ArrivalProcess {
    /// Checks the parameters, panicking with a description of the first
    /// problem. Called once at run start by the open-loop engine.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates, amplitude outside `[0, 1]`,
    /// non-positive dwell/period/duration parameters, or a generator
    /// that needs more than 10^4 steps per arrival: MMPP dwells so
    /// short that it switches regime that often between arrivals, or
    /// flash-crowd rates that far apart.
    pub fn validate(&self) {
        if let Err(problem) = self.try_validate() {
            panic!("{problem}");
        }
    }

    /// Non-panicking form of [`ArrivalProcess::validate`], used by the
    /// spec parsers to report bad parameters instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns the message [`ArrivalProcess::validate`] would panic
    /// with.
    pub fn try_validate(&self) -> Result<(), String> {
        let positive = |value: f64, what: &str| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be positive, got {value}"))
            }
        };
        match *self {
            ArrivalProcess::Poisson { per_second } => {
                if !(per_second.is_finite() && per_second > 0.0) {
                    // Keep the historical panic message verbatim — a
                    // compat test pins it.
                    return Err("arrival rate must be positive".to_string());
                }
                Ok(())
            }
            ArrivalProcess::EverySecond { .. } => Ok(()),
            ArrivalProcess::Mmpp {
                calm_per_second,
                burst_per_second,
                mean_calm_s,
                mean_burst_s,
            } => {
                positive(calm_per_second, "mmpp calm rate")?;
                positive(burst_per_second, "mmpp burst rate")?;
                positive(mean_calm_s, "mmpp calm dwell")?;
                positive(mean_burst_s, "mmpp burst dwell")?;
                // A cycle (one calm and one burst dwell) switches twice.
                let per_cycle = calm_per_second * mean_calm_s + burst_per_second * mean_burst_s;
                let switches = 2.0 / per_cycle;
                if switches > MAX_STEPS_PER_ARRIVAL {
                    return Err(format!(
                        "mmpp switches regime {switches:.3e} times per arrival, \
                         at most {MAX_STEPS_PER_ARRIVAL}: lengthen the dwells or raise the rates"
                    ));
                }
                Ok(())
            }
            ArrivalProcess::Diurnal {
                mean_per_second,
                relative_amplitude,
                period_s,
            } => {
                positive(mean_per_second, "diurnal mean rate")?;
                if !(0.0..=1.0).contains(&relative_amplitude) {
                    return Err(format!(
                        "diurnal amplitude must be in [0, 1], got {relative_amplitude}"
                    ));
                }
                positive(period_s, "diurnal period")
            }
            ArrivalProcess::FlashCrowd {
                base_per_second,
                spike_at_s,
                spike_duration_s,
                spike_per_second,
            } => {
                positive(base_per_second, "flash-crowd base rate")?;
                positive(spike_per_second, "flash-crowd spike rate")?;
                positive(spike_duration_s, "flash-crowd spike duration")?;
                if !(spike_at_s.is_finite() && spike_at_s >= 0.0) {
                    return Err(format!(
                        "flash-crowd spike onset must be non-negative, got {spike_at_s}"
                    ));
                }
                // Thinning proposes at the higher rate, so each arrival at
                // the lower one costs their ratio in proposals.
                let proposals =
                    base_per_second.max(spike_per_second) / base_per_second.min(spike_per_second);
                if proposals > MAX_STEPS_PER_ARRIVAL {
                    return Err(format!(
                        "flash-crowd thinning proposes {proposals:.3e} arrivals per one it \
                         accepts at the lower rate, at most {MAX_STEPS_PER_ARRIVAL}: \
                         bring the base and spike rates closer"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Jobs injected per arrival event: the tick batch for
    /// [`ArrivalProcess::EverySecond`], one for every other process.
    pub fn batch(&self) -> usize {
        match *self {
            ArrivalProcess::EverySecond { jobs_per_tick } => jobs_per_tick,
            _ => 1,
        }
    }

    /// Lower-case label used in CSV output and spec strings.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::EverySecond { .. } => "every-second",
            ArrivalProcess::Mmpp { .. } => "mmpp",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::FlashCrowd { .. } => "flash-crowd",
        }
    }

    /// Instantaneous rate at `t` seconds from run start, jobs/s.
    /// Time-invariant processes report their stationary rate; the MMPP
    /// reports its long-run (dwell-weighted) mean since the regime at
    /// `t` is random.
    fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { per_second } => per_second,
            ArrivalProcess::EverySecond { jobs_per_tick } => jobs_per_tick as f64,
            ArrivalProcess::Mmpp {
                calm_per_second,
                burst_per_second,
                mean_calm_s,
                mean_burst_s,
            } => {
                (calm_per_second * mean_calm_s + burst_per_second * mean_burst_s)
                    / (mean_calm_s + mean_burst_s)
            }
            ArrivalProcess::Diurnal {
                mean_per_second,
                relative_amplitude,
                period_s,
            } => {
                mean_per_second
                    * (1.0 + relative_amplitude * (std::f64::consts::TAU * t_s / period_s).sin())
            }
            ArrivalProcess::FlashCrowd {
                base_per_second,
                spike_at_s,
                spike_duration_s,
                spike_per_second,
            } => {
                if t_s >= spike_at_s && t_s < spike_at_s + spike_duration_s {
                    spike_per_second
                } else {
                    base_per_second
                }
            }
        }
    }

    /// Expected arrivals per second averaged over a run of
    /// `duration_s` seconds — the convergence target the determinism
    /// tests check empirical rates against.
    pub fn mean_per_second(&self, duration_s: f64) -> f64 {
        match *self {
            ArrivalProcess::FlashCrowd {
                base_per_second,
                spike_at_s,
                spike_duration_s,
                spike_per_second,
            } => {
                let spike_seen = (duration_s - spike_at_s).clamp(0.0, spike_duration_s);
                (base_per_second * (duration_s - spike_seen) + spike_per_second * spike_seen)
                    / duration_s
            }
            // Diurnal averages to its mean over whole periods; the
            // other processes are time-invariant.
            ArrivalProcess::Diurnal {
                mean_per_second, ..
            } => mean_per_second,
            _ => self.rate_at(0.0),
        }
    }

    /// The peak instantaneous rate, the thinning envelope for the
    /// time-varying processes.
    fn peak_per_second(&self) -> f64 {
        match *self {
            ArrivalProcess::Diurnal {
                mean_per_second,
                relative_amplitude,
                ..
            } => mean_per_second * (1.0 + relative_amplitude),
            ArrivalProcess::FlashCrowd {
                base_per_second,
                spike_per_second,
                ..
            } => base_per_second.max(spike_per_second),
            _ => self.rate_at(0.0),
        }
    }

    /// Draws the gap from the arrival event at `now` to the next one.
    ///
    /// Deterministic given the RNG state: Poisson consumes exactly one
    /// exponential draw and `EverySecond` none (the historical draw
    /// sites), the MMPP consumes one exponential pair per dwell segment
    /// crossed, and the time-varying processes consume one exponential
    /// plus one uniform per thinning proposal.
    pub fn next_gap(&self, now: SimTime, rng: &mut Rng, state: &mut ArrivalState) -> SimDuration {
        match *self {
            ArrivalProcess::Poisson { per_second } => {
                SimDuration::from_secs_f64(rng.exponential(1.0 / per_second))
            }
            ArrivalProcess::EverySecond { .. } => SimDuration::from_secs(1),
            ArrivalProcess::Mmpp {
                calm_per_second,
                burst_per_second,
                mean_calm_s,
                mean_burst_s,
            } => {
                // Competing exponentials: in each regime the next
                // arrival races the next regime switch; crossing a
                // switch accumulates the dwell and re-draws in the
                // other regime (both clocks are memoryless).
                let mut elapsed = 0.0;
                loop {
                    let (rate, dwell) = if state.in_burst {
                        (burst_per_second, mean_burst_s)
                    } else {
                        (calm_per_second, mean_calm_s)
                    };
                    let to_arrival = rng.exponential(1.0 / rate);
                    let to_switch = rng.exponential(dwell);
                    if to_arrival <= to_switch {
                        return SimDuration::from_secs_f64(elapsed + to_arrival);
                    }
                    elapsed += to_switch;
                    state.in_burst = !state.in_burst;
                }
            }
            ArrivalProcess::Diurnal { .. } | ArrivalProcess::FlashCrowd { .. } => {
                // Lewis–Shedler thinning: propose from a Poisson stream
                // at the peak rate, accept with rate(t)/peak.
                let peak = self.peak_per_second();
                let start_s = now.duration_since(SimTime::ZERO).as_secs_f64();
                let mut elapsed = 0.0;
                loop {
                    elapsed += rng.exponential(1.0 / peak);
                    if rng.next_f64() * peak <= self.rate_at(start_s + elapsed) {
                        return SimDuration::from_secs_f64(elapsed);
                    }
                }
            }
        }
    }

    /// Parses a compact spec string, the `--arrivals` CLI format:
    ///
    /// | Spec | Process |
    /// |---|---|
    /// | `poisson:RATE` | [`ArrivalProcess::Poisson`] |
    /// | `every-second:JOBS` | [`ArrivalProcess::EverySecond`] |
    /// | `mmpp:CALM,BURST,CALM_S,BURST_S` | [`ArrivalProcess::Mmpp`] |
    /// | `diurnal:MEAN,AMPLITUDE,PERIOD_S` | [`ArrivalProcess::Diurnal`] |
    /// | `flash:BASE,AT_S,DURATION_S,SPIKE` | [`ArrivalProcess::FlashCrowd`] |
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::arrivals::ArrivalProcess;
    ///
    /// let process = ArrivalProcess::parse("diurnal:1.5,0.8,86400").unwrap();
    /// assert_eq!(process.label(), "diurnal");
    /// assert!(ArrivalProcess::parse("poisson:fast").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem: unknown process, wrong
    /// argument count, unparseable number, or parameters that fail
    /// [`ArrivalProcess::validate`].
    pub fn parse(spec: &str) -> Result<ArrivalProcess, String> {
        let (kind, args) = spec.split_once(':').unwrap_or((spec, ""));
        let numbers: Vec<f64> = if args.is_empty() {
            Vec::new()
        } else {
            args.split(',')
                .map(|a| {
                    a.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad number \"{a}\" in arrival spec \"{spec}\""))
                })
                .collect::<Result<_, _>>()?
        };
        let want = |n: usize| -> Result<(), String> {
            if numbers.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "arrival spec \"{kind}\" takes {n} parameter(s), got {}",
                    numbers.len()
                ))
            }
        };
        let process = match kind {
            "poisson" => {
                want(1)?;
                ArrivalProcess::Poisson {
                    per_second: numbers[0],
                }
            }
            "every-second" => {
                want(1)?;
                if numbers[0].fract() != 0.0 || numbers[0] < 0.0 {
                    return Err(format!(
                        "every-second takes a whole job count, got {}",
                        numbers[0]
                    ));
                }
                ArrivalProcess::EverySecond {
                    jobs_per_tick: numbers[0] as usize,
                }
            }
            "mmpp" => {
                want(4)?;
                ArrivalProcess::Mmpp {
                    calm_per_second: numbers[0],
                    burst_per_second: numbers[1],
                    mean_calm_s: numbers[2],
                    mean_burst_s: numbers[3],
                }
            }
            "diurnal" => {
                want(3)?;
                ArrivalProcess::Diurnal {
                    mean_per_second: numbers[0],
                    relative_amplitude: numbers[1],
                    period_s: numbers[2],
                }
            }
            "flash" | "flash-crowd" => {
                want(4)?;
                ArrivalProcess::FlashCrowd {
                    base_per_second: numbers[0],
                    spike_at_s: numbers[1],
                    spike_duration_s: numbers[2],
                    spike_per_second: numbers[3],
                }
            }
            other => {
                return Err(format!(
                    "unknown arrival process \"{other}\" \
                     (poisson | every-second | mmpp | diurnal | flash)"
                ))
            }
        };
        process.try_validate()?;
        Ok(process)
    }
}

/// How arrivals pick which function to invoke.
///
/// Azure Functions production traces show a handful of hot functions
/// taking most invocations over a long cold tail; [`Popularity::Zipf`]
/// and [`Popularity::HotCold`] model that skew. The engine draws the
/// function per arrival: [`Popularity::Uniform`] keeps the historical
/// one-`index` draw site (bit-compat with the goldens), the skewed
/// distributions consume exactly one `f64` draw against a precomputed
/// cumulative table ([`Rng::cdf_index`] over a [`CdfTable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Popularity {
    /// Every function equally likely (the paper's setup).
    #[default]
    Uniform,
    /// Zipf-distributed: function `i` (0-based rank) drawn with weight
    /// `(i + 1)^-exponent`. Exponent ≈ 1 matches the Azure skew.
    Zipf {
        /// Skew exponent; larger is more head-heavy. Must be positive.
        exponent: f64,
    },
    /// A two-class mix: the first `hot_functions` functions split
    /// `hot_share` of the traffic evenly, the rest split the remainder.
    HotCold {
        /// How many functions form the hot set.
        hot_functions: usize,
        /// Fraction of arrivals hitting the hot set, in `(0, 1]`.
        hot_share: f64,
    },
}

impl Popularity {
    /// Checks the parameters against a catalog of `functions` entries.
    ///
    /// # Panics
    ///
    /// Panics with the message [`Popularity::try_validate`] returns.
    pub fn validate(&self, functions: usize) {
        if let Err(problem) = self.try_validate(functions) {
            panic!("{problem}");
        }
    }

    /// Non-panicking form of [`Popularity::validate`].
    ///
    /// # Errors
    ///
    /// Returns a message for a non-positive Zipf exponent, an empty hot
    /// set or one larger than the catalog, or a hot share outside
    /// `(0, 1]`.
    pub fn try_validate(&self, functions: usize) -> Result<(), String> {
        match *self {
            Popularity::Uniform => {}
            Popularity::Zipf { exponent } => {
                if !(exponent.is_finite() && exponent > 0.0) {
                    return Err(format!("zipf exponent must be positive, got {exponent}"));
                }
            }
            Popularity::HotCold {
                hot_functions,
                hot_share,
            } => {
                if !(1..=functions).contains(&hot_functions) {
                    return Err(format!(
                        "hot set must hold 1..={functions} functions, got {hot_functions}"
                    ));
                }
                if !(hot_share > 0.0 && hot_share <= 1.0) {
                    return Err(format!("hot share must be in (0, 1], got {hot_share}"));
                }
            }
        }
        Ok(())
    }

    /// Lower-case label used in CSV output and spec strings.
    pub fn label(&self) -> &'static str {
        match self {
            Popularity::Uniform => "uniform",
            Popularity::Zipf { .. } => "zipf",
            Popularity::HotCold { .. } => "hot-cold",
        }
    }

    /// Parses a compact spec string, the `--popularity` CLI format:
    /// `uniform`, `zipf:EXPONENT`, or `hot-cold:HOT_N,HOT_SHARE`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown distribution, a malformed
    /// parameter, or one that fails [`Popularity::try_validate`] against
    /// the full function catalog.
    pub fn parse(spec: &str) -> Result<Popularity, String> {
        let (kind, args) = spec.split_once(':').unwrap_or((spec, ""));
        let popularity = match kind {
            "uniform" => {
                if !args.is_empty() {
                    return Err("uniform takes no parameters".to_string());
                }
                Popularity::Uniform
            }
            "zipf" => {
                let exponent: f64 = args
                    .trim()
                    .parse()
                    .map_err(|_| format!("zipf takes one exponent, got \"{args}\""))?;
                Popularity::Zipf { exponent }
            }
            "hot-cold" => {
                let parts: Vec<&str> = args.split(',').collect();
                if parts.len() != 2 {
                    return Err(format!("hot-cold takes HOT_N,HOT_SHARE, got \"{args}\""));
                }
                let hot_functions: usize = parts[0]
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad hot-set size \"{}\"", parts[0]))?;
                let hot_share: f64 = parts[1]
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad hot share \"{}\"", parts[1]))?;
                Popularity::HotCold {
                    hot_functions,
                    hot_share,
                }
            }
            other => {
                return Err(format!(
                    "unknown popularity \"{other}\" (uniform | zipf | hot-cold)"
                ))
            }
        };
        // A run over fewer functions checks its own catalog again at
        // start.
        popularity.try_validate(FunctionId::ALL.len())?;
        Ok(popularity)
    }
}

/// Per-run function chooser compiled from a [`Popularity`] over a
/// catalog of `n` functions. Built once at run start; picking is O(1)
/// for uniform and O(log n) (one binary search, one RNG draw) for the
/// skewed distributions.
///
/// # Examples
///
/// ```
/// use microfaas::arrivals::{FunctionPicker, Popularity};
/// use microfaas_sim::Rng;
///
/// let picker = FunctionPicker::new(&Popularity::Zipf { exponent: 1.2 }, 17);
/// let mut rng = Rng::new(3);
/// let mut head = 0;
/// for _ in 0..1_000 {
///     if picker.pick(&mut rng) == 0 {
///         head += 1;
///     }
/// }
/// assert!(head > 200, "rank 0 should take well over 1/17th: {head}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionPicker {
    n: usize,
    /// Cumulative weights for the skewed distributions; `None` keeps
    /// the historical uniform `index` draw.
    cdf: Option<CdfTable>,
}

impl FunctionPicker {
    /// Compiles `popularity` over a catalog of `n` functions.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the parameters fail
    /// [`Popularity::validate`].
    pub fn new(popularity: &Popularity, n: usize) -> Self {
        assert!(n > 0, "need at least one function");
        popularity.validate(n);
        let cdf = match *popularity {
            Popularity::Uniform => None,
            Popularity::Zipf { exponent } => {
                let mut total = 0.0;
                Some(
                    (0..n)
                        .map(|i| {
                            total += ((i + 1) as f64).powf(-exponent);
                            total
                        })
                        .collect(),
                )
            }
            Popularity::HotCold {
                hot_functions,
                hot_share,
            } => {
                let cold = n - hot_functions;
                let hot_each = hot_share / hot_functions as f64;
                let cold_each = if cold == 0 {
                    0.0
                } else {
                    (1.0 - hot_share) / cold as f64
                };
                let mut total = 0.0;
                Some(
                    (0..n)
                        .map(|i| {
                            total += if i < hot_functions {
                                hot_each
                            } else {
                                cold_each
                            };
                            total
                        })
                        .collect(),
                )
            }
        };
        FunctionPicker {
            n,
            cdf: cdf.map(CdfTable::new),
        }
    }

    /// Draws one function index in `[0, n)`.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        match &self.cdf {
            // The historical draw site: exactly one uniform index.
            None => rng.index(self.n),
            Some(cdf) => rng.cdf_index(cdf),
        }
    }
}

/// One tenant class in a multi-tenant mix: a share of the traffic and
/// the latency SLO that share is sold against.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Display name (CSV column, report rows).
    pub name: String,
    /// Relative traffic share; weights need not sum to 1.
    pub weight: f64,
    /// End-to-end latency target, seconds. A completion at or under
    /// this latency counts as an SLO hit.
    pub slo_latency_s: f64,
}

impl TenantClass {
    /// Checks the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive weight or SLO target.
    pub fn validate(&self) {
        assert!(
            self.weight.is_finite() && self.weight > 0.0,
            "tenant \"{}\" weight must be positive, got {}",
            self.name,
            self.weight
        );
        assert!(
            self.slo_latency_s.is_finite() && self.slo_latency_s > 0.0,
            "tenant \"{}\" SLO must be positive, got {}",
            self.name,
            self.slo_latency_s
        );
    }
}

/// Per-tenant results of a run: completions, latency, and SLO
/// attainment against the class target.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The class name.
    pub name: String,
    /// The class SLO target, seconds.
    pub slo_latency_s: f64,
    /// Completions attributed to this tenant.
    pub completed: u64,
    /// Mean end-to-end latency over those completions, seconds.
    pub mean_latency_s: f64,
    /// Completions at or under the SLO target.
    pub slo_hits: u64,
}

impl TenantSummary {
    /// Fraction of completions meeting the SLO (`NaN` if none
    /// completed).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            f64::NAN
        } else {
            self.slo_hits as f64 / self.completed as f64
        }
    }
}

/// Streams arrivals into tenant classes and folds per-tenant latency —
/// O(tenants) memory, so the million-job streaming path carries it for
/// free. With no classes configured it draws nothing and reports
/// nothing, keeping legacy runs bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTracker {
    classes: Vec<TenantClass>,
    /// The classes' cumulative weights; `None` with no classes.
    cdf: Option<CdfTable>,
    completed: Vec<u64>,
    slo_hits: Vec<u64>,
    latency: Vec<OnlineStats>,
}

impl TenantTracker {
    /// Builds a tracker over `classes` (empty is the single-tenant
    /// no-op).
    ///
    /// # Panics
    ///
    /// Panics if any class fails [`TenantClass::validate`].
    pub fn new(classes: &[TenantClass]) -> Self {
        let mut total = 0.0;
        let cdf: Vec<f64> = classes
            .iter()
            .map(|class| {
                class.validate();
                total += class.weight;
                total
            })
            .collect();
        TenantTracker {
            classes: classes.to_vec(),
            cdf: (!cdf.is_empty()).then(|| CdfTable::new(cdf)),
            completed: vec![0; classes.len()],
            slo_hits: vec![0; classes.len()],
            latency: vec![OnlineStats::new(); classes.len()],
        }
    }

    /// Draws the tenant for a new arrival: one `f64` from the
    /// simulation stream when classes are configured, **zero draws**
    /// otherwise (every job then reports tenant 0).
    pub fn draw(&self, rng: &mut Rng) -> u16 {
        match &self.cdf {
            Some(cdf) => rng.cdf_index(cdf) as u16,
            None => 0,
        }
    }

    /// Folds one completion into tenant `tenant`'s aggregates. A no-op
    /// when no classes are configured.
    pub fn record(&mut self, tenant: u16, latency_s: f64) {
        if self.classes.is_empty() {
            return;
        }
        let t = tenant as usize;
        self.completed[t] += 1;
        self.latency[t].record(latency_s);
        if latency_s <= self.classes[t].slo_latency_s {
            self.slo_hits[t] += 1;
        }
    }

    /// Per-tenant summaries in class order (empty when no classes are
    /// configured).
    pub fn summaries(&self) -> Vec<TenantSummary> {
        self.classes
            .iter()
            .enumerate()
            .map(|(t, class)| TenantSummary {
                name: class.name.clone(),
                slo_latency_s: class.slo_latency_s,
                completed: self.completed[t],
                mean_latency_s: self.latency[t].mean(),
                slo_hits: self.slo_hits[t],
            })
            .collect()
    }
}

/// A named traffic shape: an arrival process plus the popularity skew
/// and tenant mix to run it with. The unit the `scenarios` subcommand
/// and [`crate::experiment::scenario_sweep_cached_jobs`] iterate over.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (CSV `scenario` column).
    pub name: String,
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Per-function popularity skew.
    pub popularity: Popularity,
    /// Tenant classes; empty runs single-tenant.
    pub tenants: Vec<TenantClass>,
}

impl Scenario {
    /// A scenario with uniform popularity and no tenant classes.
    pub fn new(name: &str, arrival: ArrivalProcess) -> Self {
        Scenario {
            name: name.to_string(),
            arrival,
            popularity: Popularity::Uniform,
            tenants: Vec::new(),
        }
    }

    /// The standard five-regime suite the `scenarios` subcommand runs
    /// by default, sized for a 10-worker sparse-load sweep (long-run
    /// means near 0.25–0.4 jobs/s, the regime where governors
    /// genuinely trade latency against energy):
    ///
    /// * `steady` — Poisson at 0.25 jobs/s (the SCHEDULING.md regime);
    /// * `bursty` — MMPP, 0.05 jobs/s calm / 2.0 bursting;
    /// * `diurnal` — sinusoid, mean 0.25, amplitude 0.9, 600 s period;
    /// * `flash-crowd` — 0.1 jobs/s base with a 120 s spike at 3.0;
    /// * `heavy-tail` — Poisson at 0.25 with Zipf(1.1) popularity and
    ///   a paid/free tenant mix (5 s and 60 s SLOs).
    pub fn standard_suite() -> Vec<Scenario> {
        vec![
            Scenario::new("steady", ArrivalProcess::Poisson { per_second: 0.25 }),
            Scenario::new(
                "bursty",
                ArrivalProcess::Mmpp {
                    calm_per_second: 0.05,
                    burst_per_second: 2.0,
                    mean_calm_s: 240.0,
                    mean_burst_s: 30.0,
                },
            ),
            Scenario::new(
                "diurnal",
                ArrivalProcess::Diurnal {
                    mean_per_second: 0.25,
                    relative_amplitude: 0.9,
                    period_s: 600.0,
                },
            ),
            Scenario::new(
                "flash-crowd",
                ArrivalProcess::FlashCrowd {
                    base_per_second: 0.1,
                    spike_at_s: 300.0,
                    spike_duration_s: 120.0,
                    spike_per_second: 3.0,
                },
            ),
            Scenario {
                name: "heavy-tail".to_string(),
                arrival: ArrivalProcess::Poisson { per_second: 0.25 },
                popularity: Popularity::Zipf { exponent: 1.1 },
                tenants: vec![
                    TenantClass {
                        name: "paid".to_string(),
                        weight: 0.2,
                        slo_latency_s: 5.0,
                    },
                    TenantClass {
                        name: "free".to_string(),
                        weight: 0.8,
                        slo_latency_s: 60.0,
                    },
                ],
            },
        ]
    }

    /// Parses scenario specs from JSON: either one scenario object or
    /// `{"scenarios": [...]}`. Each object takes:
    ///
    /// ```json
    /// {
    ///   "name": "launch-day",
    ///   "arrivals": "flash:0.5,300,120,10",
    ///   "popularity": "zipf:1.1",
    ///   "tenants": [
    ///     {"name": "paid", "weight": 0.2, "slo_latency_s": 5.0},
    ///     {"name": "free", "weight": 0.8, "slo_latency_s": 60.0}
    ///   ]
    /// }
    /// ```
    ///
    /// `popularity` defaults to uniform and `tenants` to none; unknown
    /// keys are rejected so typos cannot silently change a regime.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(text: &str) -> Result<Vec<Scenario>, String> {
        let value = json::parse(text)?;
        let object = value
            .as_object()
            .ok_or_else(|| "top level must be an object".to_string())?;
        if object.len() == 1 && object[0].0 == "scenarios" {
            let list = object[0]
                .1
                .as_array()
                .ok_or_else(|| "\"scenarios\" must be an array".to_string())?;
            if list.is_empty() {
                return Err("\"scenarios\" must not be empty".to_string());
            }
            return list.iter().map(parse_scenario).collect();
        }
        Ok(vec![parse_scenario(&value)?])
    }
}

fn parse_scenario(value: &json::Value) -> Result<Scenario, String> {
    let object = value
        .as_object()
        .ok_or_else(|| "each scenario must be an object".to_string())?;
    let mut name = None;
    let mut arrival = None;
    let mut popularity = Popularity::Uniform;
    let mut tenants = Vec::new();
    for (key, value) in object {
        match key.as_str() {
            "name" => {
                name = Some(
                    value
                        .as_str()
                        .ok_or_else(|| "\"name\" must be a string".to_string())?
                        .to_string(),
                );
            }
            "arrivals" => {
                let spec = value
                    .as_str()
                    .ok_or_else(|| "\"arrivals\" must be a spec string".to_string())?;
                arrival = Some(ArrivalProcess::parse(spec)?);
            }
            "popularity" => {
                let spec = value
                    .as_str()
                    .ok_or_else(|| "\"popularity\" must be a spec string".to_string())?;
                popularity = Popularity::parse(spec)?;
            }
            "tenants" => {
                let list = value
                    .as_array()
                    .ok_or_else(|| "\"tenants\" must be an array".to_string())?;
                for (i, entry) in list.iter().enumerate() {
                    tenants.push(parse_tenant(i, entry)?);
                }
            }
            other => {
                return Err(format!(
                    "unknown scenario key \"{other}\" \
                     (name | arrivals | popularity | tenants)"
                ));
            }
        }
    }
    Ok(Scenario {
        name: name.ok_or_else(|| "scenario missing \"name\"".to_string())?,
        arrival: arrival.ok_or_else(|| "scenario missing \"arrivals\"".to_string())?,
        popularity,
        tenants,
    })
}

fn parse_tenant(i: usize, value: &json::Value) -> Result<TenantClass, String> {
    let object = value
        .as_object()
        .ok_or_else(|| format!("tenant {i} must be an object"))?;
    let mut name = None;
    let mut weight = None;
    let mut slo = None;
    for (key, value) in object {
        match key.as_str() {
            "name" => {
                name = Some(
                    value
                        .as_str()
                        .ok_or_else(|| format!("tenant {i}: \"name\" must be a string"))?
                        .to_string(),
                );
            }
            "weight" => {
                weight = Some(
                    value
                        .as_f64()
                        .filter(|w| w.is_finite() && *w > 0.0)
                        .ok_or_else(|| format!("tenant {i}: \"weight\" must be positive"))?,
                );
            }
            "slo_latency_s" => {
                slo = Some(
                    value
                        .as_f64()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("tenant {i}: \"slo_latency_s\" must be positive"))?,
                );
            }
            other => {
                return Err(format!(
                    "tenant {i}: unknown key \"{other}\" (name | weight | slo_latency_s)"
                ));
            }
        }
    }
    Ok(TenantClass {
        name: name.ok_or_else(|| format!("tenant {i}: missing \"name\""))?,
        weight: weight.ok_or_else(|| format!("tenant {i}: missing \"weight\""))?,
        slo_latency_s: slo.ok_or_else(|| format!("tenant {i}: missing \"slo_latency_s\""))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean_rate(process: ArrivalProcess, seed: u64, arrivals: usize) -> f64 {
        let mut rng = Rng::new(seed);
        let mut state = ArrivalState::default();
        let mut now = SimTime::ZERO;
        for _ in 0..arrivals {
            now = now + process.next_gap(now, &mut rng, &mut state);
        }
        arrivals as f64 * process.batch().max(1) as f64
            / now.duration_since(SimTime::ZERO).as_secs_f64()
    }

    #[test]
    fn poisson_gap_matches_legacy_draw_site() {
        // Bit-compat guard: one exponential draw with mean 1/rate.
        let process = ArrivalProcess::Poisson { per_second: 2.0 };
        let mut rng = Rng::new(9);
        let gap = process.next_gap(SimTime::ZERO, &mut rng, &mut ArrivalState::default());
        let mut legacy = Rng::new(9);
        let expected = SimDuration::from_secs_f64(legacy.exponential(1.0 / 2.0));
        assert_eq!(gap, expected);
        assert_eq!(rng, legacy, "exactly one draw consumed");
    }

    #[test]
    fn every_second_consumes_no_draws() {
        let process = ArrivalProcess::EverySecond { jobs_per_tick: 3 };
        let mut rng = Rng::new(9);
        let gap = process.next_gap(SimTime::ZERO, &mut rng, &mut ArrivalState::default());
        assert_eq!(gap, SimDuration::from_secs(1));
        assert_eq!(rng, Rng::new(9), "zero draws consumed");
        assert_eq!(process.batch(), 3);
    }

    #[test]
    fn mmpp_rate_converges_to_dwell_weighted_mean() {
        let process = ArrivalProcess::Mmpp {
            calm_per_second: 0.2,
            burst_per_second: 4.0,
            mean_calm_s: 90.0,
            mean_burst_s: 30.0,
        };
        // Long-run mean: (0.2*90 + 4*30) / 120 = 1.15 jobs/s.
        let expected = process.mean_per_second(1e9);
        assert!((expected - 1.15).abs() < 1e-12);
        let rate = empirical_mean_rate(process, 5, 200_000);
        assert!(
            (rate / expected - 1.0).abs() < 0.05,
            "empirical {rate:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn mmpp_gaps_are_burstier_than_poisson() {
        let mmpp = ArrivalProcess::Mmpp {
            calm_per_second: 0.05,
            burst_per_second: 5.0,
            mean_calm_s: 200.0,
            mean_burst_s: 20.0,
        };
        let mut rng = Rng::new(11);
        let mut state = ArrivalState::default();
        let mut stats = OnlineStats::new();
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            let gap = mmpp.next_gap(now, &mut rng, &mut state);
            stats.record(gap.as_secs_f64());
            now += gap;
        }
        assert!(
            stats.coefficient_of_variation() > 1.5,
            "MMPP CV {:.2} should exceed the Poisson CV of 1",
            stats.coefficient_of_variation()
        );
    }

    #[test]
    fn diurnal_rate_peaks_and_troughs() {
        let process = ArrivalProcess::Diurnal {
            mean_per_second: 1.0,
            relative_amplitude: 0.5,
            period_s: 100.0,
        };
        assert!((process.rate_at(25.0) - 1.5).abs() < 1e-12, "peak at T/4");
        assert!(
            (process.rate_at(75.0) - 0.5).abs() < 1e-12,
            "trough at 3T/4"
        );
        let rate = empirical_mean_rate(process, 7, 200_000);
        assert!(
            (rate / 1.0 - 1.0).abs() < 0.05,
            "empirical {rate:.3} vs mean 1.0"
        );
    }

    #[test]
    fn flash_crowd_rate_steps_inside_the_window() {
        let process = ArrivalProcess::FlashCrowd {
            base_per_second: 0.5,
            spike_at_s: 100.0,
            spike_duration_s: 50.0,
            spike_per_second: 8.0,
        };
        assert_eq!(process.rate_at(99.9), 0.5);
        assert_eq!(process.rate_at(100.0), 8.0);
        assert_eq!(process.rate_at(149.9), 8.0);
        assert_eq!(process.rate_at(150.0), 0.5);
        // Mean over 200 s: (0.5*150 + 8*50) / 200 = 2.375.
        assert!((process.mean_per_second(200.0) - 2.375).abs() < 1e-12);
    }

    #[test]
    fn spec_strings_round_trip_every_process() {
        for (spec, label) in [
            ("poisson:1.5", "poisson"),
            ("every-second:4", "every-second"),
            ("mmpp:0.1,5,120,15", "mmpp"),
            ("diurnal:1,0.8,86400", "diurnal"),
            ("flash:0.5,300,120,10", "flash-crowd"),
            ("flash-crowd:0.5,300,120,10", "flash-crowd"),
        ] {
            assert_eq!(
                ArrivalProcess::parse(spec).unwrap().label(),
                label,
                "{spec}"
            );
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for (spec, needle) in [
            ("warp:1", "unknown arrival process"),
            ("poisson:1,2", "takes 1 parameter"),
            ("poisson:-3", "arrival rate must be positive"),
            ("poisson:zoom", "bad number"),
            ("mmpp:1,2,3", "takes 4 parameter"),
            ("diurnal:1,1.5,60", "amplitude must be in [0, 1]"),
            ("every-second:1.5", "whole job count"),
        ] {
            let err = ArrivalProcess::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn uniform_picker_matches_legacy_index_draw() {
        let picker = FunctionPicker::new(&Popularity::Uniform, 17);
        let mut rng = Rng::new(23);
        let picked = picker.pick(&mut rng);
        let mut legacy = Rng::new(23);
        assert_eq!(picked, legacy.index(17));
        assert_eq!(rng, legacy, "identical stream consumption");
    }

    #[test]
    fn zipf_concentrates_on_the_head() {
        let picker = FunctionPicker::new(&Popularity::Zipf { exponent: 1.1 }, 17);
        let mut rng = Rng::new(29);
        let mut counts = [0u32; 17];
        for _ in 0..20_000 {
            counts[picker.pick(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8] && counts[8] > 0, "{counts:?}");
        let head: u32 = counts[..3].iter().sum();
        assert!(
            head > 10_000,
            "top 3 of 17 should take over half the draws, got {head}"
        );
    }

    #[test]
    fn hot_cold_split_matches_the_share() {
        let picker = FunctionPicker::new(
            &Popularity::HotCold {
                hot_functions: 2,
                hot_share: 0.9,
            },
            10,
        );
        let mut rng = Rng::new(31);
        let hot = (0..20_000).filter(|_| picker.pick(&mut rng) < 2).count();
        assert!((17_500..18_500).contains(&hot), "hot draws: {hot}");
    }

    #[test]
    fn popularity_specs_parse() {
        assert_eq!(Popularity::parse("uniform").unwrap(), Popularity::Uniform);
        assert_eq!(
            Popularity::parse("zipf:0.9").unwrap(),
            Popularity::Zipf { exponent: 0.9 }
        );
        assert_eq!(
            Popularity::parse("hot-cold:3,0.8").unwrap(),
            Popularity::HotCold {
                hot_functions: 3,
                hot_share: 0.8
            }
        );
        assert!(Popularity::parse("pareto:1").is_err());
        assert!(Popularity::parse("hot-cold:0,0.5").is_err());
        assert!(Popularity::parse("hot-cold:17,0.5").is_ok());
        assert!(Popularity::parse("hot-cold:18,0.5").is_err());
        assert!(Popularity::parse("zipf:-1").is_err());
    }

    #[test]
    fn specs_past_the_work_bound_are_refused() {
        // 10^9 regime switches and 10^8 thinning proposals per arrival.
        for spec in ["mmpp:1,1,1e-9,1e-9", "flash:1,10,0.000001,1e8"] {
            let refused = ArrivalProcess::parse(spec).unwrap_err();
            assert!(refused.contains("at most 10000"), "{spec}: {refused}");
        }
        // A dip far below the base thins just as slowly.
        assert!(ArrivalProcess::parse("flash:1e8,0,1e9,1").is_err());
        // The bound itself, and the repository's most demanding specs.
        for spec in [
            "mmpp:0.0001,0.0001,1,1",
            "flash:1,10,10,1e4",
            "flash:0.2,120,60,40",
            "flash:10,3600,300,500",
        ] {
            assert!(ArrivalProcess::parse(spec).is_ok(), "{spec}");
        }
        assert!(ArrivalProcess::parse("mmpp:0.0001,0.0001,0.99,0.99").is_err());
    }

    #[test]
    fn tenant_tracker_draws_nothing_without_classes() {
        let tracker = TenantTracker::new(&[]);
        let mut rng = Rng::new(37);
        assert_eq!(tracker.draw(&mut rng), 0);
        assert_eq!(rng, Rng::new(37), "zero draws consumed");
        assert!(tracker.summaries().is_empty());
    }

    #[test]
    fn tenant_tracker_attributes_slo_hits() {
        let classes = [
            TenantClass {
                name: "paid".to_string(),
                weight: 1.0,
                slo_latency_s: 5.0,
            },
            TenantClass {
                name: "free".to_string(),
                weight: 3.0,
                slo_latency_s: 60.0,
            },
        ];
        let mut tracker = TenantTracker::new(&classes);
        let mut rng = Rng::new(41);
        let mut shares = [0u32; 2];
        for _ in 0..10_000 {
            shares[tracker.draw(&mut rng) as usize] += 1;
        }
        assert!((2_200..2_800).contains(&shares[0]), "{shares:?}");
        tracker.record(0, 4.0);
        tracker.record(0, 6.0);
        tracker.record(1, 30.0);
        let summaries = tracker.summaries();
        assert_eq!(summaries[0].completed, 2);
        assert_eq!(summaries[0].slo_hits, 1);
        assert_eq!(summaries[0].attainment(), 0.5);
        assert_eq!(summaries[0].mean_latency_s, 5.0);
        assert_eq!(summaries[1].attainment(), 1.0);
    }

    #[test]
    fn scenario_json_round_trips() {
        let scenarios = Scenario::from_json(
            r#"{
                "name": "launch-day",
                "arrivals": "flash:0.5,300,120,10",
                "popularity": "zipf:1.1",
                "tenants": [
                    {"name": "paid", "weight": 0.2, "slo_latency_s": 5.0},
                    {"name": "free", "weight": 0.8, "slo_latency_s": 60.0}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(scenarios.len(), 1);
        let s = &scenarios[0];
        assert_eq!(s.name, "launch-day");
        assert_eq!(s.arrival.label(), "flash-crowd");
        assert_eq!(s.popularity, Popularity::Zipf { exponent: 1.1 });
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[1].slo_latency_s, 60.0);
    }

    #[test]
    fn scenario_json_accepts_a_list() {
        let scenarios = Scenario::from_json(
            r#"{"scenarios": [
                {"name": "a", "arrivals": "poisson:0.5"},
                {"name": "b", "arrivals": "mmpp:0.1,2,100,20"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].popularity, Popularity::Uniform);
        assert!(scenarios[1].tenants.is_empty());
    }

    #[test]
    fn scenario_json_rejects_typos_and_omissions() {
        for (text, needle) in [
            (r#"{"name": "x"}"#, "missing \"arrivals\""),
            (r#"{"arrivals": "poisson:1"}"#, "missing \"name\""),
            (
                r#"{"name": "x", "arrivals": "poisson:1", "popularty": "uniform"}"#,
                "unknown scenario key",
            ),
            (
                r#"{"name": "x", "arrivals": "poisson:1", "tenants": [{"name": "t", "weight": 1}]}"#,
                "missing \"slo_latency_s\"",
            ),
            (r#"{"scenarios": []}"#, "must not be empty"),
        ] {
            let err = Scenario::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn standard_suite_covers_every_process_shape() {
        let suite = Scenario::standard_suite();
        assert_eq!(suite.len(), 5);
        let labels: Vec<&str> = suite.iter().map(|s| s.arrival.label()).collect();
        for label in ["poisson", "mmpp", "diurnal", "flash-crowd"] {
            assert!(labels.contains(&label), "suite missing {label}");
        }
        assert!(
            suite
                .iter()
                .any(|s| s.popularity != Popularity::Uniform && !s.tenants.is_empty()),
            "one regime must exercise popularity skew and tenants"
        );
        for s in &suite {
            s.arrival.validate();
        }
    }
}
