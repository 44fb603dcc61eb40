import numpy as np

from latentflow import autodiff as ad
from latentflow.signals import desk_pipeline_mel
from latentflow.wavegen import DecoderConfig, DiscriminatorConfig, DiscriminatorSuite, WaveDecoder


def test_decoder_and_discriminator_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    store = ad.ParamStore()
    decoder = WaveDecoder(DecoderConfig(), store, rng)
    suite = DiscriminatorSuite(DiscriminatorConfig(), desk_pipeline_mel(), store, rng)
    z = rng.standard_normal((8, 8))
    f0 = np.full(8, 220.0)

    def loss_fn():
        terms = []
        for _, score, feats in suite.discriminate(decoder(z, f0)):
            terms += [ad.mean(ad.square(t)) for t in [score, *feats]]
        return ad.total(ad.concat([ad.reshape(t, (1,)) for t in terms], axis=0))

    assert ad.finite_diff_check(loss_fn, store, max_coords_per_param=3) < 1e-4
