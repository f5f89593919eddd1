//! Seeded inputs with verdicts known by construction, and the oracle
//! cross-check of those verdicts.
//!
//! Every database is a list of *gadgets* over gadget-local constants. The
//! expected verdict follows from how the gadgets are combined:
//!
//! * for queries without constants (the `E/V` reachability shape and the
//!   PK-only cycle), gadgets share no constants, so a falsifying repair
//!   exists iff each gadget has one: the database is certain iff some
//!   gadget is certain;
//! * for `N('c', …)` queries, every unit sits in the one `N(c, ·)` block:
//!   the database is certain iff the block is non-empty and every unit it
//!   links is complete (a repair may keep any one of them); blocks with
//!   another key are never read.
//!
//! [`oracle_check`] re-derives the verdict of a small database with the
//! exhaustive ⊕-repair oracle, which shares no code with the compiled
//! plans, the poly-time backends or the budgeted fallback search limits.

use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
use cqa_model::{Fact, Instance};
use cqa_repair::{CertaintyOracle, SearchLimits};
use std::fmt::Write;
use std::sync::Arc;

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A fact argument: the query's constant, or a gadget-local constant.
#[derive(Clone, Copy, Debug)]
pub enum Arg {
    /// A constant named in the query (never renamed).
    Fixed(&'static str),
    /// The `n`-th constant local to this database.
    Local(u32),
}

/// A fact before naming.
#[derive(Clone, Copy, Debug)]
pub struct GFact {
    /// Relation name (one upper-case letter).
    pub rel: &'static str,
    /// Arguments; only the first `arity` are used.
    pub args: [Arg; 3],
    /// Arity.
    pub arity: u8,
}

/// A problem of the mix: texts in the `cqa` syntax plus the request budget
/// for the fallback route.
pub struct Family {
    /// Short name used in notes.
    pub name: &'static str,
    /// Schema text.
    pub schema: &'static str,
    /// Query text.
    pub query: &'static str,
    /// Foreign-key text.
    pub fks: &'static str,
    /// `"budget"` sent with serve requests (the fallback route needs one).
    pub budget: Option<u64>,
    /// Builds a database of roughly `target` facts whose verdict is
    /// `certain`.
    pub build: fn(target: usize, certain: bool, rng: &mut Rng) -> Db,
}

/// The ROADMAP's nested Lemma 45 problem (FO, plan depth 2).
pub const L45: Family = Family {
    name: "nested_l45",
    schema: "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]",
    query: "N('c',y), M(y,w), Q(w), P(w), O(y)",
    fks: "N[2] -> O, M[2] -> Q",
    budget: None,
    build: build_l45,
};

/// The paper's §8 worked example (FO, one ground-key Lemma 45 step).
pub const S8: Family = Family {
    name: "section8",
    schema: "N[2,1] O[1,1] P[1,1]",
    query: "N('c',y), O(y), P(y)",
    fks: "N[2] -> O",
    budget: None,
    build: build_s8,
};

/// Proposition 16's shape under renamed relations (poly-time, reachability).
pub const REACH: Family = Family {
    name: "prop16_ev",
    schema: "E[2,1] V[1,1]",
    query: "E(x,x), V(x)",
    fks: "E[2] -> V",
    budget: None,
    build: build_reach,
};

/// Proposition 17's shape (poly-time, dual-Horn).
pub const HORN: Family = Family {
    name: "prop17",
    schema: "N[3,1] O[1,1]",
    query: "N(x,'c',y), O(y)",
    fks: "N[3] -> O",
    budget: None,
    build: build_horn,
};

/// The PK-only cycle `R(x,y), S(y,x)` (budgeted oracle fallback today).
pub const CYCLE: Family = Family {
    name: "pk_cycle",
    schema: "R[2,1] S[2,1]",
    query: "R(x,y), S(y,x)",
    fks: "",
    budget: Some(100_000),
    build: build_cycle,
};

/// The serve mix, one entry per route-relevant problem.
pub const FAMILIES: [&Family; 5] = [&L45, &S8, &REACH, &HORN, &CYCLE];

/// A database under construction: facts plus the next free local constant.
#[derive(Clone, Debug, Default)]
pub struct Db {
    /// The facts.
    pub facts: Vec<GFact>,
    locals: u32,
}

impl Db {
    /// A fresh gadget-local constant.
    pub fn local(&mut self) -> Arg {
        self.locals += 1;
        Arg::Local(self.locals - 1)
    }

    /// Appends `rel(args…)`.
    pub fn fact(&mut self, rel: &'static str, args: &[Arg]) {
        let mut a = [Arg::Fixed(""); 3];
        a[..args.len()].copy_from_slice(args);
        self.facts.push(GFact {
            rel,
            args: a,
            arity: args.len() as u8,
        });
    }
}

const C: Arg = Arg::Fixed("c");

/// One nested-Lemma-45 unit `N(c,y) O(y) M(y,w) Q(w) P(w)`; with `mconf` a
/// second, conflicting `M(y,w2)` branch. A `broken` unit lacks the `P` of
/// its last branch, so a repair that keeps `N(c,y)` (and, with `mconf`,
/// `M(y,w2)`) falsifies the query. Returns `y`, `w` and `w2`.
pub fn l45_unit(db: &mut Db, mconf: bool, broken: bool, linked: bool) -> [Arg; 3] {
    let (y, w) = (db.local(), db.local());
    if linked {
        db.fact("N", &[C, y]);
    }
    db.fact("O", &[y]);
    db.fact("M", &[y, w]);
    db.fact("Q", &[w]);
    if !broken || mconf {
        db.fact("P", &[w]);
    }
    let mut w2 = w;
    if mconf {
        w2 = db.local();
        db.fact("M", &[y, w2]);
        db.fact("Q", &[w2]);
        if !broken {
            db.fact("P", &[w2]);
        }
    }
    [y, w, w2]
}

/// An inconsistent `N(d, ·)` block the `N('c', …)` plans never read.
pub fn noise_block(db: &mut Db, with_p: bool) -> Arg {
    let (d, z, z2) = (db.local(), db.local(), db.local());
    db.fact("N", &[d, z]);
    db.fact("N", &[d, z2]);
    db.fact("O", &[z]);
    db.fact("O", &[z2]);
    if with_p {
        db.fact("P", &[z]);
    }
    d
}

/// Whether unit `i` of a nested-Lemma-45 database carries an `M` conflict.
pub fn l45_mconf(i: usize) -> bool {
    i % 4 == 1
}

/// A nested-Lemma-45 database of `units` linked units with a noise block
/// after every 20th; `broken` names the unit that lacks its `P` fact.
pub fn l45_db(units: usize, broken: Option<usize>) -> Db {
    let mut db = Db::default();
    for i in 0..units {
        l45_unit(&mut db, l45_mconf(i), broken == Some(i), true);
        if i % 20 == 19 {
            noise_block(&mut db, false);
        }
    }
    db
}

/// Down-scaled twins of every nested-Lemma-45 input, with their verdicts:
/// each unit kind (plain, `M` conflict) beside a noise block, whole and
/// broken; a broken unit among linked units and one left unlinked; and the
/// fresh facts the delta stream writes (`N(d, f)`, `M`, `Q`, `O`).
pub fn l45_twins() -> Vec<(Db, bool)> {
    let mut out = Vec::new();
    for mconf in [false, true] {
        for broken in [false, true] {
            let mut db = Db::default();
            l45_unit(&mut db, mconf, broken, true);
            noise_block(&mut db, false);
            out.push((db, !broken));
        }
    }
    for linked in [true, false] {
        let mut db = Db::default();
        l45_unit(&mut db, false, false, true);
        l45_unit(&mut db, false, true, linked);
        out.push((db, !linked));
    }
    let mut db = Db::default();
    l45_unit(&mut db, false, false, true);
    let (d, f) = (noise_block(&mut db, false), db.local());
    db.fact("N", &[d, f]);
    out.push((db, true));
    let mut db = Db::default();
    l45_unit(&mut db, false, false, true);
    let fresh: Vec<Arg> = (0..4).map(|_| db.local()).collect();
    db.fact("M", &[fresh[0], fresh[1]]);
    db.fact("Q", &[fresh[2]]);
    db.fact("O", &[fresh[3]]);
    out.push((db, true));
    out
}

/// Checks every [`l45_twins`] verdict with the oracle.
pub fn check_l45_twins() -> Result<(), String> {
    l45_twins()
        .iter()
        .try_for_each(|(db, certain)| oracle_check(&L45, db, *certain))
}

/// A §8 database of units `N(c,y) O(y) P(y)` (a noise block after every
/// tenth); a no-instance lacks one unit's `P`.
fn build_s8(target: usize, certain: bool, rng: &mut Rng) -> Db {
    let mut db = Db::default();
    let units = (target / 3).max(1);
    let broken = (!certain).then(|| rng.below(units));
    for i in 0..units {
        let y = db.local();
        db.fact("N", &[C, y]);
        db.fact("O", &[y]);
        if broken != Some(i) {
            db.fact("P", &[y]);
        }
        if i % 10 == 9 {
            noise_block(&mut db, true);
        }
    }
    db
}

/// A nested-Lemma-45 database; a no-instance has one broken unit.
fn build_l45(target: usize, certain: bool, rng: &mut Rng) -> Db {
    let units = (target / 6).max(1);
    l45_db(units, (!certain).then(|| rng.below(units)))
}

/// Chains `a0 → … → ak` where every block but the last may also loop; the
/// last block loops (certain) or closes the cycle back to `a0` (a repair
/// taking every forward edge has no loop). Chain lengths cycle through
/// 1..=3, so every seed builds the same shapes.
fn build_reach(target: usize, certain: bool, _: &mut Rng) -> Db {
    let mut db = Db::default();
    let chain = |db: &mut Db, k: usize, closes_with_loop: bool| {
        let a: Vec<Arg> = (0..=k).map(|_| db.local()).collect();
        for i in 0..k {
            db.fact("E", &[a[i], a[i]]);
            db.fact("E", &[a[i], a[i + 1]]);
        }
        db.fact("E", &[a[k], if closes_with_loop { a[k] } else { a[0] }]);
        for &x in &a {
            db.fact("V", &[x]);
        }
    };
    let mut k = 0;
    if certain {
        chain(&mut db, 1, true);
        k += 1;
    }
    while db.facts.len() < target || db.facts.is_empty() {
        chain(&mut db, 1 + k % 3, false);
        k += 1;
    }
    db
}

/// Blocks of `N`: a certain one (both facts carry `'c'` and reach an `O`
/// fact) in yes-instances, then alternately a bad block (one fact without
/// `'c'`) and a consistent fact without `'c'`.
fn build_horn(target: usize, certain: bool, _: &mut Rng) -> Db {
    let mut db = Db::default();
    if certain {
        let (a, b, b2) = (db.local(), db.local(), db.local());
        db.fact("N", &[a, C, b]);
        db.fact("N", &[a, C, b2]);
        db.fact("O", &[b]);
        db.fact("O", &[b2]);
    }
    let mut i = 0;
    while db.facts.len() < target || db.facts.is_empty() {
        let (a, b, d) = (db.local(), db.local(), db.local());
        if i % 2 == 0 {
            db.fact("N", &[a, C, b]);
        }
        i += 1;
        db.fact("N", &[a, d, b]);
        db.fact("O", &[b]);
    }
    db
}

/// Two conflicting `R` blocks in every database, so the fallback oracle
/// enumerates exactly 4 primary-key repairs whatever the seed; the rest are
/// `R(u,v) S(v,t)` pairs that never close a cycle.
fn build_cycle(target: usize, certain: bool, _: &mut Rng) -> Db {
    let mut db = Db::default();
    let conf = |db: &mut Db, good: bool| {
        let (a, b, b2, z) = (db.local(), db.local(), db.local(), db.local());
        db.fact("R", &[a, b]);
        db.fact("R", &[a, b2]);
        db.fact("S", &[b, a]);
        db.fact("S", &[b2, if good { a } else { z }]);
    };
    conf(&mut db, certain);
    conf(&mut db, false);
    if certain {
        let (a, b) = (db.local(), db.local());
        db.fact("R", &[a, b]);
        db.fact("S", &[b, a]);
    }
    while db.facts.len() < target {
        let (u, v, t) = (db.local(), db.local(), db.local());
        db.fact("R", &[u, v]);
        db.fact("S", &[v, t]);
    }
    db
}

/// `text` with `suffix` inserted after every upper-case letter —
/// the relation names of the `cqa` syntax used here — so the renamed
/// problem is new to every cache while keeping its shape.
pub fn rename_rels(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + 8 * suffix.len());
    for ch in text.chars() {
        out.push(ch);
        if ch.is_ascii_uppercase() {
            out.push_str(suffix);
        }
    }
    out
}

/// Renders facts in the instance syntax, naming local `n` by `name`.
pub fn render(facts: &[GFact], rel_suffix: &str, mut name: impl FnMut(u32, &mut String)) -> String {
    let mut out = String::with_capacity(facts.len() * 24);
    for f in facts {
        out.push_str(f.rel);
        out.push_str(rel_suffix);
        out.push('(');
        for (i, a) in f.args[..f.arity as usize].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match a {
                Arg::Fixed(s) => out.push_str(s),
                Arg::Local(n) => name(*n, &mut out),
            }
        }
        out.push_str(") ");
    }
    out
}

/// Names local `n` with a seed-keyed bijection of fixed width, so inputs
/// differ between seeds but not in size.
pub fn seeded_name(seed: u64) -> impl FnMut(u32, &mut String) {
    let key = (seed as u32) | 1;
    move |n, out| {
        let _ = write!(out, "v{:08x}", n.wrapping_mul(0x9E37_79B1) ^ key);
    }
}

fn instance(family: &Family, db: &Db) -> Result<Instance, String> {
    let schema = Arc::new(parse_schema(family.schema).map_err(|e| e.to_string())?);
    let text = render(&db.facts, "", |n, out| {
        let _ = write!(out, "t{n}");
    });
    parse_instance(&schema, &text).map_err(|e| e.to_string())
}

/// Checks `db`'s constructed verdict with the exhaustive ⊕-repair oracle.
pub fn oracle_check(family: &Family, db: &Db, certain: bool) -> Result<(), String> {
    oracle_check_instance(family, &instance(family, db)?, certain)
}

/// Checks `db`'s verdict with the oracle when its search space has at most
/// `limit` candidates, else checks the down-scaled `twin` instead. Returns
/// whether `db` itself was checked.
pub fn oracle_check_or_twin(
    family: &Family,
    db: &Db,
    certain: bool,
    limit: u64,
    twin: impl FnOnce() -> Db,
) -> Result<bool, String> {
    let inst = instance(family, db)?;
    let fks = parse_fks(inst.schema(), family.fks).map_err(|e| e.to_string())?;
    let small =
        CertaintyOracle::with_limits(SearchLimits::budgeted(limit)).within_budget(&inst, &fks);
    if small {
        oracle_check_instance(family, &inst, certain)?;
    } else {
        oracle_check(family, &twin(), certain)?;
    }
    Ok(small)
}

/// Checks an instance's expected verdict with the exhaustive ⊕-repair
/// oracle.
pub fn oracle_check_instance(
    family: &Family,
    inst: &Instance,
    certain: bool,
) -> Result<(), String> {
    let query = parse_query(inst.schema(), family.query).map_err(|e| e.to_string())?;
    let fks = parse_fks(inst.schema(), family.fks).map_err(|e| e.to_string())?;
    match CertaintyOracle::new()
        .is_certain(inst, &query, &fks)
        .as_bool()
    {
        Some(v) if v == certain => Ok(()),
        Some(v) => Err(format!(
            "{}: constructed verdict {certain} but the oracle says {v} on {inst}",
            family.name
        )),
        None => Err(format!("{}: oracle inconclusive on {inst}", family.name)),
    }
}

/// The fact `f`, with locals named by `name`.
pub fn to_fact(f: &GFact, name: &mut impl FnMut(u32, &mut String)) -> Fact {
    let names: Vec<String> = f.args[..f.arity as usize]
        .iter()
        .map(|a| match a {
            Arg::Fixed(s) => s.to_string(),
            Arg::Local(n) => {
                let mut s = String::new();
                name(*n, &mut s);
                s
            }
        })
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Fact::from_names(f.rel, &refs)
}
