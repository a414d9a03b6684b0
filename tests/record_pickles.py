"""Protocol-2 pickles of one record of each defsrl record class: the records
of ``tests/test_labeler.py``'s ``_ONE_OF_EACH_RECORD``.

``EARLIER_PICKLES`` were made by the version in which eleven of the sixteen
classes were frozen dataclasses with an instance ``__dict__`` (commit
966249c, ``PYTHONHASHSEED=0``); they must still load. ``PINNED_PICKLES`` are
the bytes that the version whose record mechanism lived in the tree module
writes (commit c28f91d), and that every record must still pickle to. They
are the same under any hash seed, since every set in these records has one
element, and on Python 3.10 to 3.13.
"""

EARLIER_PICKLES = {
    "SynTree": (
        b'\x80\x02cdefsrl.syntree\n_rebuilt_tree\nq\x00(cdefsrl.syntree\nSynTree\nq\x01'
        b'X\x02\x00\x00\x00NPq\x02NK\x00K\x02K\x02tq\x03(h\x01X\x02\x00\x00\x00DTq\x04X'
        b'\x01\x00\x00\x00aq\x05K\x00K\x01K\x00tq\x06(h\x01X\x02\x00\x00\x00NNq\x07X'
        b'\x03\x00\x00\x00dogq\x08K\x01K\x02K\x00tq\t\x87q\n\x85q\x0bRq\x0c.'
    ),
    "RoleSpan": (
        b'\x80\x02cdefsrl.rolemodel\nRoleSpan\nq\x00)\x81q\x01]q\x02(cdefsrl.rolemodel'
        b'\nRole\nq\x03X\n\x00\x00\x00event_timeq\x04\x85q\x05Rq\x06K\x02K\x04K\x01eb.'
    ),
    "Annotation": (
        b'\x80\x02cdefsrl.rolemodel\nAnnotation\nq\x00)\x81q\x01]q\x02(X\x01\x00\x00'
        b'\x00dq\x03X\x01\x00\x00\x00aq\x04X\x03\x00\x00\x00dogq\x05\x86q\x06cdefsrl.ro'
        b'lemodel\nRoleSpan\nq\x07)\x81q\x08]q\t(cdefsrl.rolemodel\nRole\nq\nX\t\x00'
        b'\x00\x00supertypeq\x0b\x85q\x0cRq\rK\x01K\x02Neb\x85q\x0e\x89eb.'
    ),
    "TraceEntry": (
        b'\x80\x02cdefsrl.labeler\nTraceEntry\nq\x00)\x81q\x01]q\x02(X\t\x00\x00\x00sup'
        b"ertypeq\x03K\x01K\x02X#\x00\x00\x00lexicon entry in anchor NP: 'coach'q\x04eb"
        b'.'
    ),
    "DefinitionRecord": (
        b'\x80\x02cdefsrl.corpus\nDefinitionRecord\nq\x00)\x81q\x01]q\x02(X\x01\x00\x00'
        b'\x00dq\x03X\x04\x00\x00\x00nounq\x04X\x05\x00\x00\x00a dogq\x05X\x14\x00\x00'
        b'\x00(NP (DT a) (NN dog))q\x06\x88cdefsrl.rolemodel\nAnnotation\nq\x07)\x81q'
        b'\x08]q\t(h\x03X\x01\x00\x00\x00aq\nX\x03\x00\x00\x00dogq\x0b\x86q\x0ccdefsrl.'
        b'rolemodel\nRoleSpan\nq\r)\x81q\x0e]q\x0f(cdefsrl.rolemodel\nRole\nq\x10X\t'
        b'\x00\x00\x00supertypeq\x11\x85q\x12Rq\x13K\x01K\x02Neb\x85q\x14\x89ebh\x07)'
        b'\x81q\x15]q\x16(h\x03h\x0ch\r)\x81q\x17]q\x18(h\x13K\x00K\x02Neb\x85q\x19\x89'
        b'ebeb.'
    ),
    "Diagnostic": (
        b'\x80\x02cdefsrl.corpus\nDiagnostic\nq\x00)\x81q\x01}q\x02(X\x07\x00\x00\x00li'
        b'ne_noq\x03K\x03X\x07\x00\x00\x00messageq\x04X\x08\x00\x00\x00not JSONq\x05ub.'
    ),
    "DistributionReport": (
        b'\x80\x02cdefsrl.corpus\nDistributionReport\nq\x00)\x81q\x01}q\x02(X\x04\x00'
        b'\x00\x00rowsq\x03cdefsrl.patterns\nPattern\nq\x04)\x81q\x05}q\x06X\x08\x00'
        b'\x00\x00elementsq\x07cdefsrl.patterns\nPatternElement\nq\x08)\x81q\t}q\n(X'
        b'\x04\x00\x00\x00roleq\x0bcdefsrl.rolemodel\nRole\nq\x0cX\t\x00\x00\x00superty'
        b'peq\r\x85q\x0eRq\x0fX\n\x00\x00\x00repetitionq\x10cdefsrl.patterns\nRepetitio'
        b'n\nq\x11X\x06\x00\x00\x00singleq\x12\x85q\x13Rq\x14ubh\x08)\x81q\x15}q\x16(h'
        b'\x0bh\x0cX\x13\x00\x00\x00differentia_qualityq\x17\x85q\x18Rq\x19h\x10h\x11X'
        b'\x04\x00\x00\x00plusq\x1a\x85q\x1bRq\x1cub\x86q\x1dsbK\x02\x86q\x1e\x85q\x1fX'
        b'\n\x00\x00\x00singletonsq h\x04)\x81q!}q"h\x07h\x08)\x81q#}q$(h\x0bh\x0fh\x10'
        b"h\x14ub\x85q%sb\x85q&X\x05\x00\x00\x00totalq'K\x03ub."
    ),
    "RoleMetrics": (
        b'\x80\x02cdefsrl.corpus\nRoleMetrics\nq\x00)\x81q\x01}q\x02(X\t\x00\x00\x00pre'
        b'cisionq\x03G?\xe0\x00\x00\x00\x00\x00\x00X\x06\x00\x00\x00recallq\x04G?\xf0'
        b'\x00\x00\x00\x00\x00\x00X\x02\x00\x00\x00f1q\x05G?\xe5UUUUUUub.'
    ),
    "EvalReport": (
        b'\x80\x02cdefsrl.corpus\nEvalReport\nq\x00)\x81q\x01}q\x02(X\x05\x00\x00\x00ex'
        b'actq\x03}q\x04cdefsrl.rolemodel\nRole\nq\x05X\t\x00\x00\x00supertypeq\x06\x85'
        b'q\x07Rq\x08cdefsrl.corpus\nRoleMetrics\nq\t)\x81q\n}q\x0b(X\t\x00\x00\x00prec'
        b'isionq\x0cG?\xe0\x00\x00\x00\x00\x00\x00X\x06\x00\x00\x00recallq\rG?\xf0\x00'
        b'\x00\x00\x00\x00\x00X\x02\x00\x00\x00f1q\x0eG?\xe5UUUUUUubsX\x05\x00\x00\x00t'
        b'okenq\x0f}q\x10h\x08h\nsX\x12\x00\x00\x00supertype_accuracyq\x11G?\xf0\x00'
        b'\x00\x00\x00\x00\x00X\x14\x00\x00\x00ill_formed_agreementq\x12G?\xe0\x00\x00'
        b'\x00\x00\x00\x00X\x0c\x00\x00\x00gold_supportq\x13}q\x14h\x08K\x02sX\x11\x00'
        b'\x00\x00predicted_supportq\x15}q\x16h\x08K\x01sX\x05\x00\x00\x00pairsq\x17K'
        b'\x02ub.'
    ),
    "LabelerConfig": (
        b'\x80\x02cdefsrl.labeler\nLabelerConfig\nq\x00)\x81q\x01}q\x02(X\x0c\x00\x00'
        b'\x00noun_lexiconq\x03cdefsrl.lexicon\nLexicon\nq\x04)\x81q\x05}q\x06(X\x03'
        b'\x00\x00\x00posq\x07X\x04\x00\x00\x00nounq\x08X\x07\x00\x00\x00entriesq\tc__b'
        b'uiltin__\nfrozenset\nq\n]q\x0bX\x05\x00\x00\x00coachq\x0ca\x85q\rRq\x0eX\t'
        b'\x00\x00\x00max_wordsq\x0fK\x01ubX\x0c\x00\x00\x00verb_lexiconq\x10h\x04)\x81'
        b'q\x11}q\x12(h\x07X\x04\x00\x00\x00verbq\x13h\th\n]q\x14X\x03\x00\x00\x00runq'
        b'\x15a\x85q\x16Rq\x17h\x0fK\x01ubX\x12\x00\x00\x00location_gazetteerq\x18cdefs'
        b'rl.lexicon\nGazetteer\nq\x19)\x81q\x1a}q\x1b(X\x04\x00\x00\x00kindq\x1cX\x08'
        b'\x00\x00\x00locationq\x1dh\th\n]q\x1eX\r\x00\x00\x00lake districtq\x1fa\x85q '
        b'Rq!h\x0fK\x02X\x0b\x00\x00\x00first_wordsq"h\n]q#X\x04\x00\x00\x00lakeq$a\x85'
        b"q%Rq&ubX\x0e\x00\x00\x00time_gazetteerq'h\x19)\x81q(}q)(h\x1cX\x04\x00\x00"
        b'\x00timeq*h\th\n]q+X\x04\x00\x00\x00dawnq,a\x85q-Rq.h\x0fK\x01h"h\n]q/h,a\x85'
        b'q0Rq1ubX\x1c\x00\x00\x00accessory_determiner_phrasesq2X\t\x00\x00\x00a type o'
        b'fq3\x85q4X\x17\x00\x00\x00accessory_quality_wordsq5h\n]q6X\x04\x00\x00\x00ver'
        b'yq7a\x85q8Rq9X\r\x00\x00\x00instance_modeq:\x88ub.'
    ),
    "LabelOutcome": (
        b'\x80\x02cdefsrl.labeler\nLabelOutcome\nq\x00)\x81q\x01}q\x02(X\n\x00\x00\x00a'
        b'nnotationq\x03cdefsrl.rolemodel\nAnnotation\nq\x04)\x81q\x05]q\x06(X\x01\x00'
        b'\x00\x00dq\x07X\x01\x00\x00\x00aq\x08X\x03\x00\x00\x00dogq\t\x86q\ncdefsrl.ro'
        b'lemodel\nRoleSpan\nq\x0b)\x81q\x0c]q\r(cdefsrl.rolemodel\nRole\nq\x0eX\t\x00'
        b'\x00\x00supertypeq\x0f\x85q\x10Rq\x11K\x01K\x02Neb\x85q\x12\x89ebX\n\x00\x00'
        b'\x00rule_traceq\x13cdefsrl.labeler\nTraceEntry\nq\x14)\x81q\x15]q\x16(h\x0fK'
        b"\x01K\x02X#\x00\x00\x00lexicon entry in anchor NP: 'coach'q\x17eb\x85q\x18ub."
    ),
    "Lexicon": (
        b'\x80\x02cdefsrl.lexicon\nLexicon\nq\x00)\x81q\x01}q\x02(X\x03\x00\x00\x00posq'
        b'\x03X\x04\x00\x00\x00nounq\x04X\x07\x00\x00\x00entriesq\x05c__builtin__\nfroz'
        b'enset\nq\x06]q\x07X\x08\x00\x00\x00sea_lionq\x08a\x85q\tRq\nX\t\x00\x00\x00ma'
        b'x_wordsq\x0bK\x02ub.'
    ),
    "Gazetteer": (
        b'\x80\x02cdefsrl.lexicon\nGazetteer\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00ki'
        b'ndq\x03X\x08\x00\x00\x00locationq\x04X\x07\x00\x00\x00entriesq\x05c__builtin_'
        b'_\nfrozenset\nq\x06]q\x07X\r\x00\x00\x00lake districtq\x08a\x85q\tRq\nX\t\x00'
        b'\x00\x00max_wordsq\x0bK\x02X\x0b\x00\x00\x00first_wordsq\x0ch\x06]q\rX\x04'
        b'\x00\x00\x00lakeq\x0ea\x85q\x0fRq\x10ub.'
    ),
    "PatternElement": (
        b'\x80\x02cdefsrl.patterns\nPatternElement\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00'
        b'\x00roleq\x03cdefsrl.rolemodel\nRole\nq\x04X\t\x00\x00\x00supertypeq\x05\x85q'
        b'\x06Rq\x07X\n\x00\x00\x00repetitionq\x08cdefsrl.patterns\nRepetition\nq\tX'
        b'\x04\x00\x00\x00plusq\n\x85q\x0bRq\x0cub.'
    ),
    "Pattern": (
        b'\x80\x02cdefsrl.patterns\nPattern\nq\x00)\x81q\x01}q\x02X\x08\x00\x00\x00elem'
        b'entsq\x03cdefsrl.patterns\nPatternElement\nq\x04)\x81q\x05}q\x06(X\x04\x00'
        b'\x00\x00roleq\x07cdefsrl.rolemodel\nRole\nq\x08X\t\x00\x00\x00supertypeq\t'
        b'\x85q\nRq\x0bX\n\x00\x00\x00repetitionq\x0ccdefsrl.patterns\nRepetition\nq\rX'
        b'\x06\x00\x00\x00singleq\x0e\x85q\x0fRq\x10ubh\x04)\x81q\x11}q\x12(h\x07h\x08X'
        b'\x13\x00\x00\x00differentia_qualityq\x13\x85q\x14Rq\x15h\x0ch\rX\x04\x00\x00'
        b'\x00plusq\x16\x85q\x17Rq\x18ub\x86q\x19sb.'
    ),
    "Violation": (
        b'\x80\x02cdefsrl.rolemodel\nViolation\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00'
        b'kindq\x03X\x0e\x00\x00\x00orphan_subroleq\x04X\x08\x00\x00\x00severityq\x05X'
        b'\x05\x00\x00\x00errorq\x06X\n\x00\x00\x00span_indexq\x07K\x01X\x07\x00\x00'
        b'\x00messageq\x08X&\x00\x00\x00event_time requires a parent referenceq\tub.'
    ),
}

PINNED_PICKLES = {
    "SynTree": (
        b'\x80\x02cdefsrl.syntree\n_rebuilt_tree\nq\x00(cdefsrl.syntree\nSynTree\nq\x01X'
        b'\x02\x00\x00\x00NPq\x02NK\x00K\x02K\x02tq\x03(h\x01X\x02\x00\x00\x00DTq\x04X\x01'
        b'\x00\x00\x00aq\x05K\x00K\x01K\x00tq\x06(h\x01X\x02\x00\x00\x00NNq\x07X\x03\x00'
        b'\x00\x00dogq\x08K\x01K\x02K\x00tq\t\x87q\n\x85q\x0bRq\x0c.'
    ),
    "RoleSpan": (
        b'\x80\x02cdefsrl.rolemodel\nRoleSpan\nq\x00)\x81q\x01]q\x02(cdefsrl.rolemodel\nRol'
        b'e\nq\x03X\n\x00\x00\x00event_timeq\x04\x85q\x05Rq\x06K\x02K\x04K\x01eb.'
    ),
    "Annotation": (
        b'\x80\x02cdefsrl.rolemodel\nAnnotation\nq\x00)\x81q\x01]q\x02(X\x01\x00\x00\x00dq'
        b'\x03X\x01\x00\x00\x00aq\x04X\x03\x00\x00\x00dogq\x05\x86q\x06cdefsrl.rolemodel\nR'
        b'oleSpan\nq\x07)\x81q\x08]q\t(cdefsrl.rolemodel\nRole\nq\nX\t\x00\x00\x00supertype'
        b'q\x0b\x85q\x0cRq\rK\x01K\x02Neb\x85q\x0e\x89eb.'
    ),
    "TraceEntry": (
        b'\x80\x02cdefsrl.labeler\nTraceEntry\nq\x00)\x81q\x01]q\x02(X\t\x00\x00\x00superty'
        b"peq\x03K\x01K\x02X#\x00\x00\x00lexicon entry in anchor NP: 'coach'q\x04eb."
    ),
    "DefinitionRecord": (
        b'\x80\x02cdefsrl.corpus\nDefinitionRecord\nq\x00)\x81q\x01]q\x02(X\x01\x00\x00\x00'
        b'dq\x03X\x04\x00\x00\x00nounq\x04X\x05\x00\x00\x00a dogq\x05X\x14\x00\x00\x00(NP ('
        b'DT a) (NN dog))q\x06\x88cdefsrl.rolemodel\nAnnotation\nq\x07)\x81q\x08]q\t(h\x03X'
        b'\x01\x00\x00\x00aq\nX\x03\x00\x00\x00dogq\x0b\x86q\x0ccdefsrl.rolemodel\nRoleSpan'
        b'\nq\r)\x81q\x0e]q\x0f(cdefsrl.rolemodel\nRole\nq\x10X\t\x00\x00\x00supertypeq\x11'
        b'\x85q\x12Rq\x13K\x01K\x02Neb\x85q\x14\x89ebh\x07)\x81q\x15]q\x16(h\x03h\x0ch\r)'
        b'\x81q\x17]q\x18(h\x13K\x00K\x02Neb\x85q\x19\x89ebeb.'
    ),
    "Diagnostic": (
        b'\x80\x02cdefsrl.corpus\nDiagnostic\nq\x00)\x81q\x01]q\x02(K\x03X\x08\x00\x00\x00n'
        b'ot JSONq\x03eb.'
    ),
    "DistributionReport": (
        b'\x80\x02cdefsrl.corpus\nDistributionReport\nq\x00)\x81q\x01]q\x02(cdefsrl.pattern'
        b's\nPattern\nq\x03)\x81q\x04]q\x05cdefsrl.patterns\nPatternElement\nq\x06)\x81q'
        b'\x07]q\x08(cdefsrl.rolemodel\nRole\nq\tX\t\x00\x00\x00supertypeq\n\x85q\x0bRq\x0c'
        b'cdefsrl.patterns\nRepetition\nq\rX\x06\x00\x00\x00singleq\x0e\x85q\x0fRq\x10ebh'
        b'\x06)\x81q\x11]q\x12(h\tX\x13\x00\x00\x00differentia_qualityq\x13\x85q\x14Rq\x15h'
        b'\rX\x04\x00\x00\x00plusq\x16\x85q\x17Rq\x18eb\x86q\x19abK\x02\x86q\x1a\x85q\x1bh'
        b'\x03)\x81q\x1c]q\x1dh\x06)\x81q\x1e]q\x1f(h\x0ch\x10eb\x85q ab\x85q!K\x03eb.'
    ),
    "RoleMetrics": (
        b'\x80\x02cdefsrl.corpus\nRoleMetrics\nq\x00)\x81q\x01]q\x02(G?\xe0\x00\x00\x00\x00'
        b'\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00G?\xe5UUUUUUeb.'
    ),
    "EvalReport": (
        b'\x80\x02cdefsrl.corpus\nEvalReport\nq\x00)\x81q\x01]q\x02(}q\x03cdefsrl.rolemodel'
        b'\nRole\nq\x04X\t\x00\x00\x00supertypeq\x05\x85q\x06Rq\x07cdefsrl.corpus\nRoleMetr'
        b'ics\nq\x08)\x81q\t]q\n(G?\xe0\x00\x00\x00\x00\x00\x00G?\xf0\x00\x00\x00\x00\x00'
        b'\x00G?\xe5UUUUUUebs}q\x0bh\x07h\tsG?\xf0\x00\x00\x00\x00\x00\x00G?\xe0\x00\x00'
        b'\x00\x00\x00\x00}q\x0ch\x07K\x02s}q\rh\x07K\x01sK\x02eb.'
    ),
    "LabelerConfig": (
        b'\x80\x02cdefsrl.labeler\nLabelerConfig\nq\x00)\x81q\x01]q\x02(cdefsrl.lexicon\nLe'
        b'xicon\nq\x03)\x81q\x04]q\x05(X\x04\x00\x00\x00nounq\x06c__builtin__\nfrozenset\nq'
        b'\x07]q\x08X\x05\x00\x00\x00coachq\ta\x85q\nRq\x0bK\x01ebh\x03)\x81q\x0c]q\r(X\x04'
        b'\x00\x00\x00verbq\x0eh\x07]q\x0fX\x03\x00\x00\x00runq\x10a\x85q\x11Rq\x12K\x01ebc'
        b'defsrl.lexicon\nGazetteer\nq\x13)\x81q\x14]q\x15(X\x08\x00\x00\x00locationq\x16h'
        b'\x07]q\x17X\r\x00\x00\x00lake districtq\x18a\x85q\x19Rq\x1aK\x02ebh\x13)\x81q\x1b'
        b']q\x1c(X\x04\x00\x00\x00timeq\x1dh\x07]q\x1eX\x04\x00\x00\x00dawnq\x1fa\x85q Rq!K'
        b'\x01ebX\t\x00\x00\x00a type ofq"\x85q#h\x07]q$X\x04\x00\x00\x00veryq%a\x85q&Rq\''
        b'\x88eb.'
    ),
    "LabelOutcome": (
        b'\x80\x02cdefsrl.labeler\nLabelOutcome\nq\x00)\x81q\x01]q\x02(cdefsrl.rolemodel\nA'
        b'nnotation\nq\x03)\x81q\x04]q\x05(X\x01\x00\x00\x00dq\x06X\x01\x00\x00\x00aq\x07X'
        b'\x03\x00\x00\x00dogq\x08\x86q\tcdefsrl.rolemodel\nRoleSpan\nq\n)\x81q\x0b]q\x0c(c'
        b'defsrl.rolemodel\nRole\nq\rX\t\x00\x00\x00supertypeq\x0e\x85q\x0fRq\x10K\x01K\x02'
        b'Neb\x85q\x11\x89ebcdefsrl.labeler\nTraceEntry\nq\x12)\x81q\x13]q\x14(h\x0eK\x01K'
        b"\x02X#\x00\x00\x00lexicon entry in anchor NP: 'coach'q\x15eb\x85q\x16eb."
    ),
    "Lexicon": (
        b'\x80\x02cdefsrl.lexicon\nLexicon\nq\x00)\x81q\x01]q\x02(X\x04\x00\x00\x00nounq'
        b'\x03c__builtin__\nfrozenset\nq\x04]q\x05X\x08\x00\x00\x00sea_lionq\x06a\x85q\x07R'
        b'q\x08K\x02eb.'
    ),
    "Gazetteer": (
        b'\x80\x02cdefsrl.lexicon\nGazetteer\nq\x00)\x81q\x01]q\x02(X\x08\x00\x00\x00locati'
        b'onq\x03c__builtin__\nfrozenset\nq\x04]q\x05X\r\x00\x00\x00lake districtq\x06a\x85'
        b'q\x07Rq\x08K\x02eb.'
    ),
    "PatternElement": (
        b'\x80\x02cdefsrl.patterns\nPatternElement\nq\x00)\x81q\x01]q\x02(cdefsrl.rolemodel'
        b'\nRole\nq\x03X\t\x00\x00\x00supertypeq\x04\x85q\x05Rq\x06cdefsrl.patterns\nRepeti'
        b'tion\nq\x07X\x04\x00\x00\x00plusq\x08\x85q\tRq\neb.'
    ),
    "Pattern": (
        b'\x80\x02cdefsrl.patterns\nPattern\nq\x00)\x81q\x01]q\x02cdefsrl.patterns\nPattern'
        b'Element\nq\x03)\x81q\x04]q\x05(cdefsrl.rolemodel\nRole\nq\x06X\t\x00\x00\x00super'
        b'typeq\x07\x85q\x08Rq\tcdefsrl.patterns\nRepetition\nq\nX\x06\x00\x00\x00singleq'
        b'\x0b\x85q\x0cRq\rebh\x03)\x81q\x0e]q\x0f(h\x06X\x13\x00\x00\x00differentia_qualit'
        b'yq\x10\x85q\x11Rq\x12h\nX\x04\x00\x00\x00plusq\x13\x85q\x14Rq\x15eb\x86q\x16ab.'
    ),
    "Violation": (
        b'\x80\x02cdefsrl.rolemodel\nViolation\nq\x00)\x81q\x01]q\x02(X\x0e\x00\x00\x00orph'
        b'an_subroleq\x03X\x05\x00\x00\x00errorq\x04K\x01X&\x00\x00\x00event_time requires '
        b'a parent referenceq\x05eb.'
    ),
}
