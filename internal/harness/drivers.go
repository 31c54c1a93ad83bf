package harness

// Driver is one keyed experiment: a table or figure of the paper, a DAP
// ablation, or an observability or calibration table. Key is its
// `figures -only` key.
type Driver struct {
	Key string
	Run func(Options) Figure
}

// Drivers lists every experiment driver once, in the order `figures` runs
// them: the paper's evaluation (Table I after Fig. 8), the eight DAP
// ablations, then the tables this repo adds.
var Drivers = []Driver{
	{"fig1", Fig01}, {"fig2", Fig02}, {"fig4", Fig04}, {"fig5", Fig05},
	{"fig6", Fig06}, {"fig7", Fig07}, {"fig8", Fig08}, {"tab1", Tab01},
	{"fig9", Fig09}, {"fig10", Fig10}, {"fig11", Fig11}, {"fig12", Fig12},
	{"fig13", Fig13}, {"fig14", Fig14}, {"fig15", Fig15},
	{"abl-credit-width", AblationCreditWidth},
	{"abl-k-approx", AblationKApprox},
	{"abl-sfrm-reserve", AblationSFRMReserve},
	{"abl-techniques", AblationTechniques},
	{"abl-learning", AblationLearning},
	{"abl-thread-aware", AblationThreadAware},
	{"abl-replacement", AblationReplacement},
	{"abl-footprint", AblationFootprint},
	{"breakdown", FigBreakdown},
	{"figgap", FigGap},
	{"calib", Calibration},
}
