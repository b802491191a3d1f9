struct S { struct S s; };
int main() { struct S x; return 0; }
