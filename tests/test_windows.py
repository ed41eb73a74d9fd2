"""Keep/drop policy applied while building an index."""


def test_keep_policy(ray_session):
    import shutil

    from gazetteer_search_ray.functions.analyzer import AnalyzerConfig
    from gazetteer_search_ray.pipelines.build_index import BuildOptions, build_index
    from gazetteer_search_ray.pipelines.search import Searcher
    from gazetteer_search_ray.sources.corpus import read_corpus, write_synthetic_corpus
    from gazetteer_search_ray.stages.tokenize import make_keep_policy

    shutil.rmtree("/tmp/gsr_policy", ignore_errors=True)
    files = write_synthetic_corpus("/tmp/gsr_policy/corpus", n_docs=120, n_files=2)
    build_index(
        read_corpus(files),
        "/tmp/gsr_policy/idx",
        BuildOptions(
            analyzer_config=AnalyzerConfig.code(),
            score_builder=make_keep_policy(
                allow_langs=("python", "go"), deny_path_pattern=r"/sub0/"
            ),
            batch_size=64,
        ),
    )
    s = Searcher("/tmp/gsr_policy/idx")
    langs = set(s.reader.columns["lang"])
    assert langs <= {"python", "go"}
    assert not any("/sub0/" in p for p in s.reader.columns["path"])
    assert s.reader.n_docs < 120
