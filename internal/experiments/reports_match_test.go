package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// reportHashes are the SHA-256 of every registered experiment's
// Report.String() at seed 1, scale 0.05. A change that should not move
// any experiment's output keeps them all; one that re-goldens an
// experiment on purpose updates its pin and says why.
var reportHashes = map[string]string{
	"abident":            "4a2d60164b1f71512edd4a4e305165382433ec607d707bb57397a671c3b83b21",
	"ablation-filter":    "f8b19f280581c92dd8572f3e10508d590297d32ed7ce0c509affe158102f60cc",
	"ablation-detector":  "e00399fbf8c9ce7186eab6f91eef24c430231d23e1cd993c895ce522ebb0a621",
	"ablation-window":    "d11c62c80f776748c0f8480d14408732a556a5bc8397c07b9332751b38a17a16",
	"ablation-feedback":  "71dcbb7252008a305c2f2ccbaa16e82ba91d3349ba4aee911cfc67cdd8766fb8",
	"ablation-ageweight": "ca4e1ef44be97280d70b0f608dc8b9f46b9247aeb317e523bc93e37fee870d72",
	"ext-group":          "2c3de1a5e4fba9d3fda7eea291ab4aa77939074c2453a802bd7f44b53502fe33",
	"ext-numa":           "3ea82a26fc87729c8847e62d4e0878284eaacbf7f742371693e7398dffaefbfd",
	"ext-shardloss":      "ec54c29edd7c6bb07e5e8d3e2d49305e7a871b9cfefbd0223989b32b05b42f52",
	"ext-straggler":      "a8f3e2ae44feb0b739cb29ff3673fb431befcddf5d9089044e0bcd4a30d19f07",
	"fig8":               "f28efde290614734006a5291393ca1ad6f7d08eacb457cdd0bdd5cfcd654faa4",
	"fig9":               "2353d58045455387e3eede8941e397711d47e288784d20915dda9ed7887ebe1d",
	"fig10":              "5bc1182a8037e96e8cc5b65284d07ab7c0b9f54468b809b13800791e9ccd6759",
	"fig11":              "35058f57d2f65b0974434ce277d57dda6b69c8d85543389f82586e4ed46db1d4",
	"fig12":              "c23cf8a7a5ff9206b49576cb6f46cece754ded476934ca7da06a0570642e8983",
	"fig13":              "ea4ecd05734560578da2ae9c613b50b05c1f33dfe0b03b55941129f6fd5dc099",
	"sec7rate":           "524d7cadb420c32f79c6c8186c86b1c0d7574ebb5db011f9e991a5f3ba081935",
	"fig14":              "c65b4be9f1f7d07ab7f2e224226b91367ffb1de256298983789eea572d0ec401",
	"fig15":              "19b10ea851414f691a8e8491d93cb218269d62fd69a658f29cce45cfec0b1098",
	"fig16":              "9196a43e4bdbb4e90f489dd11494b1bea554a0954f25e1e672c8e0824558072a",
	"fig1":               "69755c16e1125462c141bcc19df3bcf7a1cab338f2dfb0ecb997658621981e8f",
	"fig2":               "0f73c4431c77676c500703e3b19ae7c927cc108d0cfeb72ee2f3dd85966b5855",
	"fig3":               "c43e14d3ef6876b2b04c0ae8ce72d5420515f401d133ab471988e38ce4196032",
	"fig4":               "c2e90a948d0c586c49eccdc540b7735e42ef824f0f70aa9a64507d50612b8d7e",
	"fig5":               "9d2ab3cda5f3c3344f3024b1bb28bfd5a6a42854c291a301aacbf3a8ee4bb242",
	"tab1":               "d616cd187858be3808eb3281bd6edb24d29b46818e79e07c7c9a247de5136dd1",
	"fig7":               "964244151c55e7e1f826239ef2934dc047dece8fc68b00593ee971ff17aa031e",
	"tab2":               "db64686ffcdba2014b3b69329d9967be7a1d87cbb0e864ffc3fb90742e7b3f44",
}

// TestExperimentReportsMatch is the byte-identity oracle for the
// experiment suite: every registered experiment's report at seed 1,
// scale 0.05 must hash to its pin, and every pin must name a
// registered experiment.
func TestExperimentReportsMatch(t *testing.T) {
	ids := IDs()
	if len(ids) != len(reportHashes) {
		t.Errorf("%d experiments registered, %d pinned", len(ids), len(reportHashes))
	}
	for _, id := range ids {
		rep, err := Run(id, Options{Seed: 1, Scale: 0.05})
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		sum := sha256.Sum256([]byte(rep.String()))
		if got := hex.EncodeToString(sum[:]); got != reportHashes[id] {
			t.Errorf("%s: report hash %s, pinned %q", id, got, reportHashes[id])
		}
	}
}
