//! Fixture: snapshot serializer/parser key drift, in the JSON codec's
//! call forms. The writer emits `seed` (documented, parsed — clean) and
//! `wormhole` (undocumented, unparsed — two findings); the parser requires
//! `checksum`, which is never written (rejected-on-resume finding). The
//! rest of the documented table is absent, which aggregates into one
//! finding at the first write site.

pub fn write(w: &mut Writer, s: &S) {
    w.key("seed").u64(s.seed).key("wormhole").u64(s.wormhole);
}

pub fn parse(v: &Json) -> Result<S, JsonError> {
    let seed = v.field("seed", Json::as_u64)?;
    let checksum = v.field("checksum", Json::as_u64)?;
    Ok(S { seed, checksum })
}
