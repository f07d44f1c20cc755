package arch

// Bundled GPU models. Geometry comes from vendor whitepapers; latencies
// and throughputs follow published microbenchmarking studies (Jia et
// al., "Dissecting the NVIDIA Volta GPU Architecture via
// Microbenchmarking" and the Turing T4 sequel; Luo et al. for Ampere).
// Where a study reports a range, the values below pick the steady-state
// point the paper's stall model needs, not the best case.

// VoltaV100 returns the V100 (SM 70) model used throughout the paper's
// evaluation. This model is the repository's reference point: the
// bundled Table 3 artifacts are byte-stable on it.
func VoltaV100() *GPU {
	return &GPU{
		Name:               "Tesla V100-SXM2",
		SM:                 70,
		NumSMs:             80,
		SchedulersPerSM:    4,
		WarpSize:           32,
		MaxWarpsPerSM:      64,
		MaxThreadsPerBlock: 1024,
		MaxBlocksPerSM:     32,
		RegistersPerSM:     65536,
		SharedMemPerSM:     96 * 1024,
		MSHRsPerSM:         64,
		ICacheInstrs:       768, // 12 KiB of 128-bit words
		GlobalLatency:      420,
		GlobalLatencyTLB:   1100,
		SharedLatency:      24,
		ConstLatency:       8,
		ConstMissLatency:   120,
		LocalLatency:       84,
		AtomicLatency:      480,
		IFetchMissLatency:  32,

		ALULatency:      4,
		IMADWideLatency: 5,
		FP64Latency:     8,
		// Conversions run on the FP64/XU path on Volta: long latency.
		ConvertLatency:    14,
		ControlLatency:    2,
		MUFULatency:       24,
		IDIVLatency:       52,
		S2RLatency:        20,
		VarLatencyDefault: 16,
		MUFULatencyBound:  64,
		S2RLatencyBound:   32,
		// FP64 runs at half rate on V100, MUFU at quarter rate.
		FP64IssueCost:    2,
		MUFUIssueCost:    4,
		ConvertIssueCost: 2,
		GlobalIssueCost:  2,
		SharedIssueCost:  1,

		ICacheLineInstrs:     32,
		FetchSerializeCycles: 24,
		BlockLaunchOverhead:  25,
		UncoalescedPenalty:   28,
	}
}

// TuringT4 returns a Tesla T4 (SM 75) model. Turing keeps Volta's
// 4-scheduler SM and fixed 4-cycle ALU latency but halves the resident
// warp and block limits (32 warps, 16 blocks per SM), shrinks shared
// memory to 64 KiB, and ships only two FP64 units per SM (1/32 of FP32
// rate), which shows up as a long dispatch occupancy and dependent
// latency for FP64 work.
func TuringT4() *GPU {
	return &GPU{
		Name:               "Tesla T4",
		SM:                 75,
		NumSMs:             40,
		SchedulersPerSM:    4,
		WarpSize:           32,
		MaxWarpsPerSM:      32,
		MaxThreadsPerBlock: 1024,
		MaxBlocksPerSM:     16,
		RegistersPerSM:     65536,
		SharedMemPerSM:     64 * 1024,
		MSHRsPerSM:         32,
		ICacheInstrs:       1024, // 16 KiB L0/L1 instruction window
		GlobalLatency:      440,
		GlobalLatencyTLB:   1200,
		SharedLatency:      19,
		ConstLatency:       8,
		ConstMissLatency:   96,
		LocalLatency:       88,
		AtomicLatency:      500,
		IFetchMissLatency:  36,

		ALULatency:        4,
		IMADWideLatency:   5,
		FP64Latency:       40, // two FP64 units per SM
		ConvertLatency:    14,
		ControlLatency:    2,
		MUFULatency:       22,
		IDIVLatency:       48,
		S2RLatency:        20,
		VarLatencyDefault: 16,
		MUFULatencyBound:  64,
		S2RLatencyBound:   32,
		FP64IssueCost:     16, // 1/32 of FP32 rate
		MUFUIssueCost:     4,
		ConvertIssueCost:  2,
		GlobalIssueCost:   2,
		SharedIssueCost:   1,

		ICacheLineInstrs:     32,
		FetchSerializeCycles: 24,
		BlockLaunchOverhead:  25,
		UncoalescedPenalty:   28,
	}
}

// AmpereA100 returns an A100-SXM4 (SM 80) model. Ampere restores
// Volta's occupancy limits (64 warps, 32 blocks per SM), grows shared
// memory to 164 KiB and the SM count to 108, shortens global and
// conversion latencies, and keeps FP64 at half of FP32 rate.
func AmpereA100() *GPU {
	return &GPU{
		Name:               "A100-SXM4",
		SM:                 80,
		NumSMs:             108,
		SchedulersPerSM:    4,
		WarpSize:           32,
		MaxWarpsPerSM:      64,
		MaxThreadsPerBlock: 1024,
		MaxBlocksPerSM:     32,
		RegistersPerSM:     65536,
		SharedMemPerSM:     164 * 1024,
		MSHRsPerSM:         96,
		ICacheInstrs:       2048, // 32 KiB instruction window
		GlobalLatency:      340,
		GlobalLatencyTLB:   1000,
		SharedLatency:      22,
		ConstLatency:       8,
		ConstMissLatency:   110,
		LocalLatency:       70,
		AtomicLatency:      440,
		IFetchMissLatency:  28,

		ALULatency:        4,
		IMADWideLatency:   5,
		FP64Latency:       8,
		ConvertLatency:    10, // conversions leave the XU path on Ampere
		ControlLatency:    2,
		MUFULatency:       24,
		IDIVLatency:       52,
		S2RLatency:        20,
		VarLatencyDefault: 16,
		MUFULatencyBound:  64,
		S2RLatencyBound:   32,
		FP64IssueCost:     2,
		MUFUIssueCost:     4,
		ConvertIssueCost:  2,
		GlobalIssueCost:   2,
		SharedIssueCost:   1,

		ICacheLineInstrs:     32,
		FetchSerializeCycles: 24,
		BlockLaunchOverhead:  25,
		UncoalescedPenalty:   28,
	}
}
