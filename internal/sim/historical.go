package sim

// The historical two-way partition. This file is the one place in the
// simulation core that still spells out "ETH" and "ETC": it writes the
// paper's July-2016 split as two PartitionSpecs, so a scenario with no
// explicit Partitions reproduces it byte for byte. tools/partitionlint
// allowlists this file; the literals are banned everywhere else in the
// core.

// historicalPartitions returns the calibrated ETH/ETC pair; its one
// caller is PartitionSpecs. ETH is the anchor and takes the residual
// hashrate share. Only the transaction rates still come from the
// scenario (ETHTxPerDay, ETCTxPerDay).
func (sc *Scenario) historicalPartitions() []PartitionSpec {
	return []PartitionSpec{
		{
			Name:           "ETH",
			ChainID:        1,
			DAOSupport:     true,
			EconomicWeight: 1,
			// ~$12 after the fork. The extra daily drift is ETH's market
			// value pulling away from ETC's (O3), which via arbitrage keeps
			// ETC's hashrate roughly flat while ETH's grows.
			Price0:     12.0,
			DriftEdge:  0.0015,
			RallyShare: 1,
			// "Many users simply picked one of the two networks": the
			// single-chain users' other-chain nonces advance only through
			// replays, which keeps echo streams alive for months (Fig 4).
			PrimaryFraction: 0.55,
			TxPerDay:        sc.ETHTxPerDay,
			Speculation:     true,
			EIP155Day:       125, // Spurious Dragon
			Pools:           20,
			PoolZipf:        1.0,
			PoolChurn:       0, // ETH's distribution was stable from day one (O6)
			PoolAlpha:       1.0,
			PoolCap:         0.24,
		},
		{
			Name:    "ETC",
			ChainID: 61,
			// The drastic partition (O1), then the two-week mirror-image
			// rejoin (O2).
			ShareAtFork:    0.015,
			EconomicWeight: 1,
			RejoinShare:    0.08,
			RejoinTauDays:  10,
			// ~$1.2 after the fork. ETC shares most of the March-2017 rally
			// (the whole market rose, ETH faster), which keeps the
			// end-of-study difficulty ratio near the paper's ~10x.
			Price0:          1.2,
			RallyShare:      0.6,
			PrimaryFraction: 0.25,
			TxPerDay:        sc.ETCTxPerDay,
			EIP155Day:       177, // Jan 13 2017
			Pools:           25,
			PoolChurn:       0.15,
			PoolAlpha:       1.3,
			PoolCap:         0.24,
			PoolLagDays:     30,
		},
	}
}
