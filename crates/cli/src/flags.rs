//! The flag table: each flag's value rule and help line, and each
//! subcommand's flags with their defaults there, declared once; and the
//! checked view of a command line that subcommands read from.
//!
//! [`Flags::check`] refuses undeclared flags and values their rule
//! refuses before anything runs, and [`usage`] renders the help from
//! the same two tables.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use microfaas_energy::attribution::IdlePolicy;
use microfaas_sched::{GovernorKind, PlacementKind};

use crate::args::{Args, ParseArgsError};
use crate::commands::Cluster;

/// Every flag, one per line: its name, its value in help (none for a
/// switch), its rule (see [`Kind::named`]) and its help line.
const FLAGS: &str = "\
invocations   | N     | count     | invocations of each of the 17 functions
seed          | S     | id        | RNG seed
csv           | PATH  | text      | write the results as CSV (columns: docs/EXPERIMENTS.md)
metrics-out   | PATH  | text      | write the Prometheus text exposition
faults        | PATH  | text      | JSON fault plan applied to both clusters
jobs          | N     | text      | parallel runs, bit-identical at any count (default: cores)
max-vms       | N     | count     | largest VM count of the sweep
workers       | N     | count     | worker nodes
utilization   | F     | real      | fraction of time each node is loaded, in [0, 1]
online-rate   | F     | real      | fraction of nodes online, in (0, 1]
rate          | F     | positive  | Poisson arrival rate, jobs/s
policy        | NAME  | placement | placement policy (random and jsq are aliases)
governor      | NAME  | governor  | power governor
duration-secs | SECS  | secs      | arrival window, whole simulated seconds
streaming     |       | switch    | O(1)-memory results path for million-job runs (docs/SCALING.md)
jobs-per-tick | N     | count     | fixed batch each second instead of Poisson arrivals
arrivals      | SPEC  | text      | arrival model, e.g. mmpp:0.1,5,120,15 (docs/WORKLOADS.md)
popularity    | SPEC  | text      | function popularity: uniform | zipf:EXP | hot-cold:N,SHARE
cache         | SPEC  | text      | result cache: off | on | lru:CAP[,ttl=SECS][,inputs=N]
budget        | SPEC  | text      | per-tenant joule caps: CAP_W[,burst=J][,action=shed|defer|throttle]
tenants       | SPEC  | text      | tenant classes NAME:WEIGHT[:SLO_S], e.g. paid:1:2.5,free:4:30
slo-target    | F     | real      | SLO attainment target, in (0, 1)
window-secs   | F     | positive  | tumbling-window width, simulated seconds
max-windows   | N     | count     | flight-recorder bound on kept windows
perfetto      | PATH  | text      | write Chrome trace-event JSON for ui.perfetto.dev
idle          | NAME  | idle      | idle apportionment shown and exported (all three are checked)
breakdown     |       | switch    | add the per-function phase table
spec          | PATH  | text      | scenario JSON (default: the built-in five-regime suite)
width         | N     | count     | timeline columns
cluster       | NAME  | cluster   | cluster to run (analyze: whose trace --job and --perfetto show)
buffer        | N     | count     | trace ring-buffer capacity, events
out           | PATH  | text      | write the JSON-lines trace
job           | ID    | id        | keep only one job's events (analyze: print its waterfall)
type          | EVENT | text      | keep only one event kind, e.g. net_transfer
plan          | PATH  | text      | JSON fault plan
replicates    | R     | count     | Monte-Carlo over seeds S..S+R-1, printing aggregate statistics";

/// Every subcommand but `help`, in help order: its name and help line,
/// then the flags it takes, each `NAME=DEFAULT` or a bare `NAME` that
/// is unset unless given. A flag whose default is empty (`NAME=`) may
/// also be given bare, which selects that default.
const SUBCOMMANDS: &[&str] = &[
    "compare: run the full suite on both clusters (Fig. 3 + headline)
     invocations=100 seed=2022 csv metrics-out faults jobs",
    "boot: worker-OS boot-time progression (Fig. 1)
     csv",
    "sweep: conventional-cluster VM sweep (Fig. 4)
     max-vms=20 invocations=40 seed=2022 csv jobs",
    "proportionality: power vs active workers (Fig. 5)
     workers=10 csv",
    "tco: 5-year lifetime cost (Table II)
     utilization=0.5 online-rate=0.95",
    "workloads: execute all 17 functions for real (Table I)
     seed=7",
    "openloop: arrival-driven run with power gating
     rate=1.0 policy=random-static governor=reboot-per-job duration-secs=600 workers=10
     seed=2022 streaming jobs-per-tick arrivals popularity=uniform cache=off",
    "monitor: windowed telemetry, SLO burn-rate and anomaly alerts
     rate=1.0 arrivals policy=random-static governor=reboot-per-job budget duration-secs=600
     workers=10 seed=2022 tenants slo-target=0.95 window-secs=1.0 max-windows=4096 cache=off
     csv metrics-out perfetto jobs",
    "energy: per-function / per-tenant joule attribution (docs/ENERGY.md)
     rate=1.0 duration-secs=600 workers=10 seed=2022 governor=reboot-per-job idle=none
     tenants= budget breakdown csv metrics-out jobs",
    "sched: placement x governor sweep with latency-energy Pareto front
     rate=0.1 duration-secs=1200 workers=10 seed=1 jobs csv cache=off",
    "scenarios: the sched cross product under every traffic regime
     spec duration-secs=1200 workers=10 seed=1 jobs csv cache=off",
    "reliability: MTBF-driven fleet failure simulation
     seed=2022",
    "timeline: ASCII Gantt of worker activity for a small run
     invocations=15 width=72 seed=2022",
    "scale: MicroFaaS worker-count linearity sweep (paper SIII-c)
     invocations=30 seed=2022 csv jobs",
    "trace: record a traced run and export observability artifacts
     cluster=micro invocations=25 seed=2022 buffer=1048576 out metrics-out csv job type",
    "analyze: derive causal spans and attribute latency to phases
     invocations=100 seed=2022 jobs breakdown cluster=micro job perfetto csv",
    "faults: run a cluster under an injected fault plan
     plan=examples/faults_crash.json cluster=micro invocations=25 seed=2022 width=72
     out metrics-out csv jobs replicates=1",
];

/// The largest `--duration-secs` whose microsecond count fits in a u64.
const MAX_SECS: u64 = u64::MAX / 1_000_000;

/// A flag's value rule.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Takes no value.
    Switch,
    /// Any non-empty text; the library type that owns its grammar reads it.
    Text,
    /// One of a library type's labels, which `help` lists; read like `Text`.
    Choice(fn() -> Vec<&'static str>),
    /// A whole number from the first bound to the second.
    Int(u64, u64),
    /// A finite real above 0.
    Positive,
    /// A real whose range a library type checks when it is read.
    Real,
}

impl Kind {
    /// The rule a [`FLAGS`] row names: `switch`, `text`, `count` (a whole
    /// number of at least 1), `id` (any u64), `secs` (whole seconds, at
    /// least 1, whose microsecond count fits in a u64), `positive`,
    /// `real`, or the library type whose labels the flag takes.
    fn named(rule: &str) -> Kind {
        match rule {
            "switch" => Kind::Switch,
            "text" => Kind::Text,
            "count" => Kind::Int(1, u64::MAX),
            "id" => Kind::Int(0, u64::MAX),
            "secs" => Kind::Int(1, MAX_SECS),
            "positive" => Kind::Positive,
            "real" => Kind::Real,
            "placement" => Kind::Choice(|| PlacementKind::ALL.map(PlacementKind::label).to_vec()),
            "governor" => Kind::Choice(|| GovernorKind::ALL.map(GovernorKind::label).to_vec()),
            "idle" => Kind::Choice(|| IdlePolicy::ALL.map(IdlePolicy::label).to_vec()),
            "cluster" => Kind::Choice(|| Cluster::ALL.map(Cluster::label).to_vec()),
            other => panic!("the flag table names no rule '{other}'"),
        }
    }

    /// Whether a non-empty value passes the rule.
    fn accepts(self, raw: &str) -> bool {
        match self {
            Kind::Switch => false,
            Kind::Text | Kind::Choice(_) => true,
            Kind::Int(min, max) => raw.parse::<u64>().is_ok_and(|n| (min..=max).contains(&n)),
            Kind::Positive => raw.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0),
            Kind::Real => raw.parse::<f64>().is_ok(),
        }
    }

    /// What the rule asks for, as a refusal states it.
    fn wants(self) -> String {
        match self {
            Kind::Switch => "takes no value".to_string(),
            Kind::Text | Kind::Choice(_) => "requires a value".to_string(),
            Kind::Int(0, max) => format!("must be a whole number up to {max}"),
            Kind::Int(_, max) => format!("must be positive, a whole number up to {max}"),
            Kind::Positive => "must be positive and finite".to_string(),
            Kind::Real => "must be a number".to_string(),
        }
    }
}

/// One row of [`FLAGS`].
struct Flag {
    name: &'static str,
    /// The value in help; empty for a switch.
    value: &'static str,
    kind: Kind,
    help: &'static str,
}

/// Every flag, in help order.
fn flags() -> impl Iterator<Item = Flag> {
    FLAGS.lines().map(|row| {
        let mut columns = row.splitn(4, '|').map(str::trim);
        let mut column = || columns.next().expect("a flag row has four columns");
        let (name, value, rule, help) = (column(), column(), column(), column());
        let kind = Kind::named(rule);
        Flag {
            name,
            value,
            kind,
            help,
        }
    })
}

/// The flag `name`.
///
/// # Panics
///
/// Panics when `name` has no row in [`FLAGS`]: a bug in this crate.
fn flag(name: &str) -> Flag {
    flags()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("--{name} has no row in the flag table"))
}

/// One entry of [`SUBCOMMANDS`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Command {
    pub name: &'static str,
    pub about: &'static str,
    takes: &'static str,
}

/// Every subcommand but `help`, in help order.
pub(crate) fn commands() -> impl Iterator<Item = Command> {
    SUBCOMMANDS.iter().map(|entry| {
        let (head, takes) = entry.split_once('\n').unwrap_or((entry, ""));
        let (name, about) = head.split_once(": ").expect("NAME: help line");
        Command { name, about, takes }
    })
}

impl Command {
    /// Each flag this subcommand takes, with its default here.
    pub(crate) fn takes(self) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
        self.takes
            .split_whitespace()
            .map(|entry| match entry.split_once('=') {
                Some((name, default)) => (name, Some(default)),
                None => (entry, None),
            })
    }

    /// `Some(default)` when this subcommand takes `name`.
    fn default_of(self, name: &str) -> Option<Option<&'static str>> {
        self.takes().find(|(n, _)| *n == name).map(|(_, d)| d)
    }
}

/// A command line checked against one subcommand's entry.
pub(crate) struct Flags<'a> {
    args: &'a Args,
    command: Command,
}

impl<'a> Flags<'a> {
    /// Checks every flag in `args`: taken by `command`, and with a value
    /// its rule accepts.
    ///
    /// # Errors
    ///
    /// Names the first flag `command` does not take or refused value.
    pub(crate) fn check(args: &'a Args, command: Command) -> Result<Self, ParseArgsError> {
        for (name, raw) in args.flags() {
            let Some(default) = command.default_of(name) else {
                let taken: Vec<String> = command.takes().map(|(n, _)| format!("--{n}")).collect();
                return Err(ParseArgsError(format!(
                    "unknown flag '--{name}' for '{}' (allowed: {})",
                    command.name,
                    taken.join(", ")
                )));
            };
            let kind = flag(name).kind;
            let refused = match (kind, raw.is_empty()) {
                (Kind::Switch, true) => false,
                (_, true) => default != Some(""),
                (_, false) => !kind.accepts(raw),
            };
            if refused {
                let why = format!("invalid value '{raw}' for '--{name}': {}", kind.wants());
                return Err(ParseArgsError(why));
            }
        }
        Ok(Flags { args, command })
    }

    /// True if the flag was given, with or without a value.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.args.has(name)
    }

    /// The given value, else this subcommand's default; `None` when
    /// neither is set, as for a flag the subcommand does not take.
    pub(crate) fn text(&self, name: &str) -> Option<&'a str> {
        let given = self.args.get_str(name);
        given.or_else(|| self.command.default_of(name).flatten())
    }

    /// [`Flags::text`] read by `parse`, whose refusal names the flag.
    ///
    /// # Errors
    ///
    /// "invalid value '…' for '--name': …" when `parse` refuses it.
    pub(crate) fn read<T, E: Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, ParseArgsError> {
        let Some(raw) = self.text(name) else {
            return Ok(None);
        };
        parse(raw)
            .map(Some)
            .map_err(|e| ParseArgsError(format!("invalid value '{raw}' for '--{name}': {e}")))
    }

    /// [`Flags::read`] through `FromStr`, for a flag this subcommand
    /// gives a default.
    ///
    /// # Errors
    ///
    /// As [`Flags::read`].
    pub(crate) fn get<T: FromStr>(&self, name: &str) -> Result<T, ParseArgsError>
    where
        T::Err: Display,
    {
        let value = self.read(name, T::from_str)?;
        Ok(value.unwrap_or_else(|| panic!("'{}' gives --{name} no default", self.command.name)))
    }
}

/// Appends `words` to `out`, breaking lines at 79 columns and indenting
/// each continuation line by `indent`.
fn wrap(out: &mut String, indent: usize, words: impl IntoIterator<Item = String>, sep: &str) {
    let mut col = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
    for (i, word) in words.into_iter().enumerate() {
        if i > 0 && col + sep.len() + word.len() > 79 {
            let _ = write!(out, "\n{:indent$}", "");
            col = indent;
        } else if i > 0 {
            out.push_str(sep);
            col += sep.len();
        }
        out.push_str(&word);
        col += word.len();
    }
    out.push('\n');
}

/// The help text, generated from the flag table: each subcommand with
/// its flags and their defaults there, then each flag's value and
/// meaning once.
pub fn usage() -> String {
    let mut out = String::from(
        "microfaas — drive the MicroFaaS reproduction\n\n\
         USAGE: microfaas <subcommand> [--flag value]...\n\n\
         SUBCOMMANDS, each with its flags and their defaults\n",
    );
    for command in commands() {
        let _ = write!(out, "  {:<16} {}\n{:21}", command.name, command.about, "");
        let items = command.takes().map(|(name, default)| {
            let value = flag(name).value;
            match default {
                Some("") => format!("--{name} [{value}]"),
                Some(default) => format!("--{name} {value} (default {default})"),
                None => format!("--{name} {value}").trim_end().to_string(),
            }
        });
        wrap(&mut out, 21, items, "  ");
    }
    out.push_str("  help             this text\n\nFLAGS\n");
    for flag in flags() {
        let _ = write!(out, "  {:<22}", format!("--{} {}", flag.name, flag.value));
        let mut help = flag.help.to_string();
        if let Kind::Choice(labels) = flag.kind {
            let _ = write!(help, ": {}", labels().join(", "));
        }
        wrap(&mut out, 24, help.split(' ').map(str::to_string), " ");
    }
    out.push_str(
        "\nParallel runs are bit-identical to serial: sweeps and replicates fan out\n\
         over --jobs threads but gather results in canonical order (set\n\
         MICROFAAS_JOBS to change the default; see docs/PERFORMANCE.md).",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{dispatch, RUNS};

    fn run(argv: &[&str]) -> Result<(), ParseArgsError> {
        dispatch(&Args::parse(argv.iter().copied()).expect("parses"))
    }

    #[test]
    fn both_tables_name_the_same_subcommands_and_flags() {
        let names: Vec<&str> = commands().map(|c| c.name).collect();
        let runs: Vec<&str> = RUNS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, runs);
        assert_eq!(flags().count(), 36);
        for command in commands() {
            for (name, default) in command.takes() {
                let kind = flag(name).kind;
                if let Some(default) = default.filter(|d| !d.is_empty()) {
                    assert!(
                        kind.accepts(default),
                        "{}: --{name} {default}",
                        command.name
                    );
                }
            }
        }
    }

    /// Values each rule refuses; none may start a run.
    fn refused(kind: Kind) -> &'static [&'static str] {
        match kind {
            Kind::Switch => &["1", "yes"],
            Kind::Text | Kind::Choice(_) => &[""],
            Kind::Int(0, _) => &["", "-1", "1.5", "abc", "18446744073709551616"],
            Kind::Int(_, max) if max < u64::MAX => &["0", "-1", "", "18446744073710"],
            Kind::Int(..) => &["0", "-1", "1.5", "", "18446744073709551616"],
            Kind::Positive | Kind::Real => &["nan", "inf", "-inf", "1e400", "-1", ""],
        }
    }

    #[test]
    fn every_flag_of_every_subcommand_refuses_what_its_rule_refuses() {
        let mut cases = 0;
        for command in commands() {
            for (name, default) in command.takes() {
                let kind = flag(name).kind;
                for value in refused(kind) {
                    if value.is_empty() && default == Some("") {
                        continue;
                    }
                    let argv = [command.name, &format!("--{name}"), value];
                    let err = run(&argv).expect_err(&format!("{argv:?} is refused"));
                    // A library type's range check names the quantity instead.
                    let named = err.to_string().contains(name) || matches!(kind, Kind::Real);
                    assert!(named && !err.0.is_empty(), "{argv:?}: {err}");
                    cases += 1;
                }
            }
        }
        assert!(cases > 300, "{cases} refusals checked");
    }

    #[test]
    fn bare_valued_flags_are_refused_except_energy_tenants() {
        let err = run(&["trace", "--type"]).expect_err("bare --type");
        assert_eq!(err.0, "invalid value '' for '--type': requires a value");
        assert!(run(&["monitor", "--tenants"]).is_err());
        let err = run(&["openloop", "--streaming", "1"]).expect_err("a switch takes no value");
        assert!(err.to_string().contains("takes no value"), "{err}");
    }

    #[test]
    fn help_lists_every_subcommand_flag_default_and_label() {
        let help = usage();
        for command in commands() {
            let head = format!("  {:<16} {}", command.name, command.about);
            let mut lines = help.lines().skip_while(|line| *line != head).skip(1);
            let block: Vec<&str> = lines
                .by_ref()
                .take_while(|l| l.starts_with("    "))
                .collect();
            let block = block.join(" ");
            for (name, default) in command.takes() {
                let value = flag(name).value;
                let item = match default {
                    Some("") => format!("--{name} [{value}]"),
                    Some(default) => format!("--{name} {value} (default {default})"),
                    None => format!("--{name}"),
                };
                assert!(block.contains(&item), "{}: {item}", command.name);
            }
        }
        let labels = PlacementKind::ALL.map(PlacementKind::label).into_iter();
        let labels = labels.chain(GovernorKind::ALL.map(GovernorKind::label));
        for label in labels.chain(IdlePolicy::ALL.map(IdlePolicy::label)) {
            assert!(help.contains(label), "help names {label}");
        }
        for flag in flags() {
            assert!(
                help.contains(&format!("\n  --{} ", flag.name)),
                "{}",
                flag.name
            );
        }
    }

    /// The Markdown every documented command line lives in.
    const DOCS: [&str; 14] = [
        include_str!("../../../README.md"),
        include_str!("../../../EXPERIMENTS.md"),
        include_str!("../../../DESIGN.md"),
        include_str!("../../../docs/CACHING.md"),
        include_str!("../../../docs/ENERGY.md"),
        include_str!("../../../docs/FAILURE_MODEL.md"),
        include_str!("../../../docs/MONITORING.md"),
        include_str!("../../../docs/OBSERVABILITY.md"),
        include_str!("../../../docs/PERFORMANCE.md"),
        include_str!("../../../docs/README.md"),
        include_str!("../../../docs/SCALING.md"),
        include_str!("../../../docs/SCHEDULING.md"),
        include_str!("../../../docs/TRACING.md"),
        include_str!("../../../docs/WORKLOADS.md"),
    ];

    #[test]
    fn documented_command_lines_pass_the_flag_table() {
        let mut checked = 0;
        for doc in DOCS {
            let mut fenced = false;
            let mut line = String::new();
            for raw in doc.lines() {
                if raw.trim_start().starts_with("```") {
                    fenced = !fenced;
                    line.clear();
                    continue;
                }
                line.push_str(raw.trim());
                if let Some(joined) = line.strip_suffix('\\') {
                    line = format!("{} ", joined.trim_end());
                    continue;
                }
                if fenced {
                    checked += check_documented(&line);
                }
                line.clear();
            }
        }
        assert!(
            checked >= 36,
            "only {checked} documented command lines found"
        );
    }

    /// Checks each `microfaas SUBCOMMAND …` (or `microfaas-cli --
    /// SUBCOMMAND …`) in `line` against the table, without running it.
    fn check_documented(line: &str) -> usize {
        let words: Vec<&str> = line.split_whitespace().collect();
        let mut checked = 0;
        for (i, word) in words.iter().enumerate() {
            let rest = match *word {
                "microfaas" => &words[i + 1..],
                "microfaas-cli" if words.get(i + 1) == Some(&"--") => &words[i + 2..],
                _ => continue,
            };
            let end = rest
                .iter()
                .position(|w| w.starts_with('#'))
                .unwrap_or(rest.len());
            let argv = &rest[..end];
            if argv.first() == Some(&"help") {
                checked += 1;
                continue;
            }
            let args = Args::parse(argv.iter().copied()).expect("documented line parses");
            let command = commands().find(|c| c.name == args.command);
            let command = command.unwrap_or_else(|| panic!("{line}: unknown subcommand"));
            if let Err(e) = Flags::check(&args, command) {
                panic!("documented line `{line}` is refused: {e}");
            }
            checked += 1;
        }
        checked
    }
}
