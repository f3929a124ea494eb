//! Seeded inputs: the spec vocabulary's fact space, Table 1 as the
//! paper classifies it, the hot fact pool, the audited fact-space walk
//! and the synthetic plan problem. The same seed gives the same bytes.

use forensic_law::prelude::*;
use forensic_law::scenarios::table1;
use forensic_law::spec::ActionSpec;
use std::fmt::Write as _;

/// SplitMix64: small, seedable, and good enough to pick inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub const ACTORS: [&str; 5] = ["leo", "admin", "private", "provider", "employer"];
pub const DATA: [&str; 4] = ["content", "headers", "subscriber", "records"];
pub const WHEN: [&str; 3] = ["realtime", "stored", "stored-unopened"];
pub const WHERE: [&str; 9] = [
    "isp",
    "own-network",
    "wireless",
    "wireless-enc",
    "device",
    "provider",
    "public",
    "media",
    "remote",
];
pub const FLAGS: [&str; 8] = [
    "public-protocol",
    "rate-only",
    "hash-search",
    "consent",
    "exigent",
    "probation",
    "plain-view",
    "as-provider",
];

/// Size of the spec vocabulary's fact space: every actor, directed or
/// not, every data class, temporality and location, and every subset of
/// the eight flags.
pub const SPACE: u64 = 5 * 2 * 4 * 3 * 9 * 256;

/// One point of the fact space, as vocabulary indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fact {
    pub actor: u8,
    pub directed: bool,
    pub data: u8,
    pub when: u8,
    pub place: u8,
    pub flags: u8,
}

impl Fact {
    /// The fact with mixed-radix index `i` in `0..SPACE`.
    pub fn from_index(mut i: u64) -> Fact {
        let flags = (i % 256) as u8;
        i /= 256;
        let place = (i % 9) as u8;
        i /= 9;
        let when = (i % 3) as u8;
        i /= 3;
        let data = (i % 4) as u8;
        i /= 4;
        let directed = i % 2 == 1;
        i /= 2;
        Fact {
            actor: i as u8,
            directed,
            data,
            when,
            place,
            flags,
        }
    }

    pub fn index(self) -> u64 {
        ((((u64::from(self.actor) * 2 + u64::from(self.directed)) * 4 + u64::from(self.data)) * 3
            + u64::from(self.when))
            * 9
            + u64::from(self.place))
            * 256
            + u64::from(self.flags)
    }

    /// The fact a spec describes, if every word is in the vocabulary.
    pub fn from_spec(spec: &ActionSpec) -> Option<Fact> {
        let pos = |list: &[&str], word: &str| list.iter().position(|w| *w == word).map(|i| i as u8);
        let mut flags = 0u8;
        for flag in &spec.flags {
            flags |= 1 << pos(&FLAGS, flag)?;
        }
        Some(Fact {
            actor: pos(&ACTORS, &spec.actor)?,
            directed: spec.directed,
            data: pos(&DATA, &spec.data)?,
            when: pos(&WHEN, &spec.when)?,
            place: pos(&WHERE, &spec.location)?,
            flags,
        })
    }

    /// The JSONL request line a client would send for this fact.
    pub fn json(self, describe: &str) -> String {
        let mut out = format!(
            "{{\"actor\": \"{}\", \"directed\": {}, \"data\": \"{}\", \"when\": \"{}\", \"where\": \"{}\", \"flags\": [",
            ACTORS[self.actor as usize],
            self.directed,
            DATA[self.data as usize],
            WHEN[self.when as usize],
            WHERE[self.place as usize],
        );
        let mut first = true;
        for (bit, flag) in FLAGS.iter().enumerate() {
            if self.flags & (1 << bit) != 0 {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "\"{flag}\"");
            }
        }
        let _ = write!(out, "], \"describe\": \"{describe}\"}}");
        out
    }

    /// The engine input, built through the same spec path the server
    /// takes, so expected verdicts are computed apart from the wire.
    pub fn action(self) -> InvestigativeAction {
        ActionSpec::from_json_line(&self.json("expected"))
            .and_then(|spec| spec.to_action())
            .expect("every point of the vocabulary space is a valid spec")
    }
}

fn fact(actor: u8, data: u8, when: u8, place: u8, flags: &[usize]) -> Fact {
    Fact {
        actor,
        directed: false,
        data,
        when,
        place,
        flags: flags.iter().fold(0u8, |m, &b| m | (1 << b)),
    }
}

/// Table 1 of the paper, transcribed: for each row, whether the paper
/// says the action needs legal process ("Need") or not ("No need"),
/// and the row's facts in the wire vocabulary where the vocabulary can
/// express them. Rows 2, 13, 15, 16, 19 and 20 turn on facts the spec
/// vocabulary has no word for (campus policy, operating the
/// intercepting node, victim-authorised monitoring, mining a held
/// dataset, arrestee credentials); they are checked in-process only.
pub fn table1_rows() -> Vec<(usize, bool, Option<Fact>)> {
    // Indices: ACTORS leo=0 admin=1; DATA content=0 headers=1;
    // WHEN realtime=0 stored=1 stored-unopened=2; WHERE isp=0
    // own-network=1 wireless=2 wireless-enc=3 provider=5 public=6
    // media=7; FLAGS public-protocol=0 hash-search=2 as-provider=7.
    vec![
        (1, false, Some(fact(1, 1, 0, 1, &[]))),
        (2, false, None),
        (3, false, Some(fact(0, 1, 0, 2, &[]))),
        (4, true, Some(fact(0, 0, 0, 2, &[]))),
        (5, false, Some(fact(0, 1, 0, 3, &[]))),
        (6, true, Some(fact(0, 0, 0, 3, &[]))),
        (7, true, Some(fact(0, 1, 0, 0, &[]))),
        (8, true, Some(fact(0, 0, 0, 0, &[]))),
        (9, false, Some(fact(0, 0, 0, 6, &[0]))),
        (10, false, Some(fact(0, 0, 0, 6, &[0]))),
        (11, false, Some(fact(0, 0, 1, 6, &[0]))),
        (12, true, Some(fact(0, 0, 2, 5, &[7]))),
        (13, true, None),
        (14, true, Some(fact(0, 0, 0, 0, &[7]))),
        (15, false, None),
        (16, true, None),
        (17, false, Some(fact(0, 0, 0, 6, &[0]))),
        (18, true, Some(fact(0, 0, 1, 7, &[2]))),
        (19, false, None),
        (20, false, None),
    ]
}

/// Checks the transcription against the engine, in-process: every row
/// gets the paper's classification, and every wire-expressible row has
/// exactly the facts of the repository's own Table 1 scenario.
pub fn check_table1(engine: &ComplianceEngine) -> Result<(), String> {
    let scenarios = table1();
    for (row, needs, fact) in table1_rows() {
        let scenario = &scenarios[row - 1];
        let verdict = engine.assess(scenario.action()).verdict();
        if verdict.needs_process() != needs {
            return Err(format!(
                "Table 1 row {row}: engine says {verdict}, the paper says {}",
                if needs { "Need" } else { "No need" }
            ));
        }
        if let Some(fact) = fact {
            if FactKey::of(&fact.action()) != FactKey::of(scenario.action()) {
                return Err(format!(
                    "Table 1 row {row}: wire facts differ from the scenario"
                ));
            }
        }
    }
    Ok(())
}

/// The `serve_hot` fact pool: the wire-expressible Table 1 rows plus
/// seeded one- and two-field perturbations of them, `size` distinct
/// facts in all. Returns the pool and, per entry, the Table 1 row it
/// is (if it is one).
pub fn hot_pool(seed: u64, size: usize) -> (Vec<Fact>, Vec<Option<(usize, bool)>>) {
    let mut rng = Rng::new(seed ^ 0x0048_4f54);
    let mut pool: Vec<Fact> = Vec::new();
    let mut rows: Vec<Option<(usize, bool)>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let bases: Vec<(usize, bool, Fact)> = table1_rows()
        .into_iter()
        .filter_map(|(row, needs, fact)| fact.map(|f| (row, needs, f)))
        .collect();
    for &(row, needs, fact) in &bases {
        if seen.insert(fact) {
            pool.push(fact);
            rows.push(Some((row, needs)));
        }
    }
    while pool.len() < size {
        let (_, _, mut f) = bases[rng.below(bases.len() as u64) as usize];
        for _ in 0..1 + rng.below(2) {
            match rng.below(6) {
                0 => f.actor = rng.below(5) as u8,
                1 => f.directed = !f.directed,
                2 => f.data = rng.below(4) as u8,
                3 => f.when = rng.below(3) as u8,
                4 => f.place = rng.below(9) as u8,
                _ => f.flags ^= 1 << rng.below(8),
            }
        }
        if seen.insert(f) {
            pool.push(f);
            rows.push(None);
        }
    }
    (pool, rows)
}

/// The `serve_audited` walk: a seeded affine permutation of the whole
/// fact space, with every eighth request repeating a fact already sent
/// (so compaction has something to drop and shared facts recur).
pub struct Walk {
    mult: u64,
    offset: u64,
    step: u64,
    sent: Vec<Fact>,
    rng: Rng,
}

impl Walk {
    pub fn new(seed: u64) -> Walk {
        let mut rng = Rng::new(seed ^ 0x5741_4c4b);
        let mut mult = rng.below(SPACE) | 1;
        while gcd(mult, SPACE) != 1 {
            mult += 2;
        }
        Walk {
            mult,
            offset: rng.below(SPACE),
            step: 0,
            sent: Vec::new(),
            rng,
        }
    }

    /// The next fact of the walk.
    pub fn next_fact(&mut self) -> Fact {
        if self.step % 8 == 7 && !self.sent.is_empty() {
            self.step += 1;
            let i = self.rng.below(self.sent.len() as u64) as usize;
            return self.sent[i];
        }
        let k = self.sent.len() as u64;
        self.step += 1;
        let f = Fact::from_index((self.mult.wrapping_mul(k) % SPACE + self.offset) % SPACE);
        self.sent.push(f);
        f
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Collect specs for plan items: the provider-records ladder, device
/// and public collections and a pen/trap stream, each at a different
/// natural process rung (the shape the `plan_search` bench binary uses).
const PLAN_SPECS: [(&str, &str); 8] = [
    (
        "subscriber records",
        r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}"#,
    ),
    (
        "transaction logs",
        r#"{"actor": "leo", "data": "records", "when": "stored", "where": "provider"}"#,
    ),
    (
        "unopened mailbox",
        r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider"}"#,
    ),
    (
        "device image",
        r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device"}"#,
    ),
    (
        "public posts",
        r#"{"actor": "leo", "data": "content", "when": "stored", "where": "public"}"#,
    ),
    (
        "pen register stream",
        r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp"}"#,
    ),
    (
        "admin flow logs",
        r#"{"actor": "admin", "data": "headers", "when": "stored", "where": "own-network"}"#,
    ),
    (
        "opened provider mail",
        r#"{"actor": "leo", "data": "content", "when": "stored", "where": "provider"}"#,
    ),
];

const YIELDS: [&str; 6] = [
    "reasonable-suspicion",
    "",
    "articulable-facts",
    "",
    "probable-cause",
    "",
];

/// Evidence items in the plan problem.
pub const PLAN_ITEMS: usize = 10;

/// The `plan_solve` problem: `PLAN_ITEMS` items cycled from the spec
/// pool (every fourth a lead), yields cycled over the standards ladder,
/// a consent route priced between the subpoena and warrant rungs, and
/// a mere-suspicion start. The seed names the case; the structure, and
/// so the search's work, is the same for every seed.
pub fn plan_problem(seed: u64) -> String {
    let case = Rng::new(seed ^ 0x504c_414e).next_u64() % 1_000_000;
    let mut out = String::new();
    out.push_str("{\"start\": {\"standard\": \"mere-suspicion\"}}\n");
    out.push_str("{\"routes\": [\"consent\"]}\n");
    out.push_str("{\"costs\": {\"route\": 40}}\n");
    for i in 0..PLAN_ITEMS {
        let (name, spec) = PLAN_SPECS[i % PLAN_SPECS.len()];
        let kind = if i % 4 == 3 { "lead" } else { "goal" };
        let yields = YIELDS[i % YIELDS.len()];
        let _ = write!(
            out,
            r#"{{"{kind}": "{name} case-{case} #{i}", "collect": {spec}"#
        );
        if !yields.is_empty() {
            let _ = write!(out, r#", "yields": "{yields}""#);
        }
        out.push_str("}\n");
    }
    out
}
