// Known-bad fixture: a component reaching into the fluid settlement
// ledger from unannotated sites. Every line marked BAD must produce a
// fluid-boundary finding: the equivalence contract (DESIGN.md §14)
// rests on the ledger witnessing every send and flow birth/death, so
// an unblessed mutation can fabricate a steadiness certificate the
// probe protocol never verified. Legitimate touch points carry a
// `// simlint: fluid-settle` annotation above the function.

void
fabricateSteadiness(unsigned flow, unsigned long long now_ps)
{
    sriov::sim::FlowLedger *l = sriov::sim::fluidLedger();    // BAD, BAD
    l->onSend(flow, sriov::sim::Time::ps(now_ps));
}

void
skewGrid(sriov::sim::FlowLedger &ledger)                      // BAD
{
    // Shifting the send grid without the coordinator's certificate:
    // every later closed-form count is built on a lie.
    ledger.warpBy(sriov::sim::Time::us(3));                   // BAD
}
