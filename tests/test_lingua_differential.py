"""The agenda parser against the fixed-point reference.

Random lexicons (duplicate and multi-sense entries, morphology, shuffled
word order) and random pattern sets (acyclic unary patterns, 2- and
3-chains, explicit heads, duplicates) parse sentences of one to six words.
``cmoore.lingua.parse`` must return the same ``ParseResult`` as
``lingua_reference.parse``, order included, and the same islands, or raise
the same error with the same message.  Each item's cached sort key must
equal the reference's recursive one, on those grammars, on sentences of
prepositional-phrase attachment ambiguity, and on items ``disambiguate``
rebuilds.
"""
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lingua_reference as ref
from cmoore import lingua
from cmoore.errors import ContradictionError, DomainError
from cmoore.lingua import Lexicon, PatternSet, demo_lexicon, demo_patterns

settings.register_profile("lingua-differential", deadline=None, max_examples=200)
DIFFERENTIAL = settings.get_profile("lingua-differential")

# words carry A, B or C; chains read A to P and build C, P or Q, so some
# phrases feed further chains without every sentence growing a huge chart
CATEGORIES = ("A", "B", "C", "P", "Q")
LEMMAS = ("w0", "w1", "w2", "w3")
senses = st.lists(st.sampled_from(("s0", "s1", "s2")), min_size=1, max_size=3, unique=True)
entries = st.lists(st.tuples(st.sampled_from(CATEGORIES[:3]), senses), min_size=1, max_size=2)


@st.composite
def lexicons(draw):
    words = draw(st.lists(st.tuples(st.sampled_from(LEMMAS), entries), min_size=1,
                          max_size=4, unique_by=lambda pair: pair[0]))
    # a repeated entry is built as an equal leaf, so the chart must merge it
    words = [(w, es + es[:1]) if draw(st.booleans()) else (w, es) for w, es in words]
    features = st.lists(st.sampled_from(("PL", "PAST")), max_size=2)
    lemmas = st.sampled_from([w for w, _ in words])
    morphology = draw(st.dictionaries(
        st.sampled_from(("f0", "f1", "f2")), st.tuples(lemmas, features), max_size=2
    ))
    lexicon = Lexicon.make(dict(draw(st.permutations(words))), morphology)
    readings = {w: [cat for cat, _ in es] for w, es in words}
    readings.update((form, readings[lemma]) for form, (lemma, _) in morphology.items())
    return lexicon, readings


@st.composite
def pattern_sets(draw, seed):
    chains = st.lists(st.sampled_from(CATEGORIES[:4]), min_size=2, max_size=3)
    specs = []
    for sequence in draw(st.lists(chains, min_size=1, max_size=3)) + [seed] * (len(seed) > 1):
        head = draw(st.none() | st.integers(0, len(sequence) - 1))
        specs.append((tuple(sequence), draw(st.sampled_from(CATEGORIES[2:])), head))
    # unary patterns only rewrite to a later category, so they form no cycle
    for _ in range(draw(st.integers(0, 2))):
        low = draw(st.integers(0, len(CATEGORIES) - 2))
        high = draw(st.integers(low + 1, len(CATEGORIES) - 1))
        specs.append(((CATEGORIES[low],), CATEGORIES[high], draw(st.none() | st.just(0))))
    specs += draw(st.lists(st.sampled_from(specs), max_size=2))
    return PatternSet.make(draw(st.permutations(specs)))


@st.composite
def cases(draw):
    lexicon, readings = draw(lexicons())
    # at most one word in twenty-one is unknown, so most sentences parse
    size = draw(st.integers(1, 6))
    words = draw(st.lists(st.sampled_from(tuple(readings) * 20 + ("zz",)), min_size=size,
                          max_size=size))
    # one chain reads categories of adjacent words, so most cases build phrases
    start = draw(st.integers(0, size - 1))
    window = words[start : start + draw(st.integers(2, 3))]
    seed = [draw(st.sampled_from(readings[w])) for w in window if w in readings]
    sentence = " ".join(words) if draw(st.booleans()) else words
    return sentence, lexicon, draw(pattern_sets(seed))


def outcome(function, *args):
    try:
        result = function(*args)
    except Exception as exc:  # compared with the reference's error
        return type(exc), str(exc)
    return result, result.islands()


@DIFFERENTIAL
@given(cases())
@example(("Eleanor broke the record", demo_lexicon(), demo_patterns()))
@example(("record the", demo_lexicon(), demo_patterns()))
def test_parse_matches_reference(case):
    assert outcome(lingua.parse, *case) == outcome(ref.parse, *case)


def nodes(items):
    """Every item and, below it, every descendant, once each."""
    seen, stack = set(), list(items)
    while stack:
        item = stack.pop()
        if item not in seen:
            seen.add(item)
            stack.extend(item.children)
    return seen


def assert_keys(result):
    for ordered in (result.chart, result.items, result.full):
        assert list(ordered) == sorted(ordered, key=ref.sort_key)
    for item in nodes(result.chart):
        assert item._key == ref.sort_key(item)


@DIFFERENTIAL
@given(cases())
def test_cached_key_orders_random_grammars_as_the_recursive_key(case):
    try:
        result = lingua.parse(*case)
    except DomainError:  # an unknown word; test_parse_matches_reference covers it
        return
    assert_keys(result)


# NP V NP (P NP)*: every prepositional phrase may attach to any noun phrase or
# verb phrase before it, and nouns, verbs and adjectives each read two ways.
PP_WORDS = {
    "Art": ("the", "a"),
    "N": ("man", "park", "record"),
    "V": ("saw", "fed"),
    "A": ("old", "red"),
    "P": ("with", "in"),
}
PP_READINGS = {"Art": ("Art",), "N": ("N", "V"), "V": ("V", "N"), "A": ("A", "N"), "P": ("P",)}
PP_LEXICON = Lexicon.make({
    word: [(cat, [f"{word}_{cat.lower()}{k}" for k in range(1 + len(word) % 3)])
           for cat in PP_READINGS[slot]]
    for slot, words in PP_WORDS.items()
    for word in words
})
PP_PATTERNS = PatternSet.make([
    (("Art", "N"), "NP"),
    (("Art", "A", "N"), "NP"),
    (("NP", "PP"), "NP"),
    (("P", "NP"), "PP"),
    (("V", "NP"), "VP", 0),
    (("VP", "PP"), "VP", 0),
    (("NP", "VP"), "S"),
    (("A", "N"), "N"),
])
PP_SENSES = sorted({sense for _, entries in PP_LEXICON.words for e in entries for sense in e.senses})


@st.composite
def pp_sentences(draw):
    def word(slot):
        return draw(st.sampled_from(PP_WORDS[slot]))

    def noun_phrase():
        return [word("Art")] + [word("A")] * draw(st.booleans()) + [word("N")]

    words = noun_phrase() + [word("V")] + noun_phrase()
    for _ in range(draw(st.integers(0, 3))):
        words += [word("P")] + noun_phrase()
    return words


@settings(DIFFERENTIAL, max_examples=40)
@given(pp_sentences(), st.data())
def test_cached_key_on_attachment_ambiguity_and_disambiguation(words, data):
    result = lingua.parse(words, PP_LEXICON, PP_PATTERNS)
    assert result.full  # every shape parses as a sentence
    assert_keys(result)
    senses = st.frozensets(st.sampled_from(PP_SENSES), min_size=1)
    rules = {f"p{k}": data.draw(senses) for k in range(3)}
    context = {words[0]: data.draw(st.lists(st.sampled_from(sorted(rules)), max_size=2))}
    for item in result.full:
        try:
            rebuilt = lingua.disambiguate(item, context, rules)
        except ContradictionError:
            continue
        for node in nodes([rebuilt]):
            assert node._key == ref.sort_key(node)
